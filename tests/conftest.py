import numpy as np
import pytest

from scalesym import (
    NBodySpec,
    PhasePoint,
    ScalingAction,
    lagrange_triangle,
    nbody_system,
)


def kepler_action(n: int) -> ScalingAction:
    return ScalingAction.uniform_dilation(n, 0.5, -1.0)


def random_phase_point(rng, n: int, scale: float = 1.0) -> PhasePoint:
    return PhasePoint(scale * rng.uniform(-1.0, 1.0, size=n),
                      scale * rng.uniform(-1.0, 1.0, size=n))


@pytest.fixture
def phase_point_count(monkeypatch):
    """count(f) runs f() and returns how many PhasePoints it validated."""
    calls = [0]

    def counted(self, validate=PhasePoint.__post_init__):
        calls[0] += 1
        validate(self)

    monkeypatch.setattr(PhasePoint, "__post_init__", counted)

    def count(f) -> int:
        calls[0] = 0
        f()
        return calls[0]

    return count


@pytest.fixture
def two_body():
    """Unit masses at (+-0.5, 0, 0): a central configuration with xi^2 = 4."""
    spec = NBodySpec((1.0, 1.0), dim=3)
    system = nbody_system(spec)
    q = np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])
    return spec, system, kepler_action(6), q


@pytest.fixture
def triangle():
    """Unit-side equal-mass Lagrange triangle in the plane: xi^2 = 6."""
    spec = NBodySpec((1.0, 1.0, 1.0), dim=2)
    system = nbody_system(spec)
    q = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    return spec, system, kepler_action(6), q


BETA = 0.4


def quadratic_action(c: float = 0.5, b: float = 0.0) -> ScalingAction:
    """A genuinely nonlinear R+ action on the plane (flow of a quadratic field).

    Psi_g(q1, q2) = (g q1, g q2 + BETA q1^2 (g^2 - g)); the group law holds
    exactly, so it exercises the non-dilation code paths.
    """

    def psi(g, q):
        return np.array([g * q[0], g * q[1] + BETA * q[0] ** 2 * (g * g - g)])

    def dpsi(g, q):
        return np.array([[g, 0.0], [2 * BETA * q[0] * (g * g - g), g]])

    def xi_q(q):
        return np.array([q[0], q[1] + BETA * q[0] ** 2])

    def dxi_q(q):
        return np.array([[1.0, 0.0], [2 * BETA * q[0], 1.0]])

    return ScalingAction.custom(2, c, b, psi, dpsi, xi_q, dxi_q)
