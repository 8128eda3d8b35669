import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scalesym import (
    DimensionMismatch,
    NonFiniteValue,
    PhasePoint,
    ScalarField,
    check_gradient,
    fd_gradient,
    fd_jacobian,
    momentum_field,
    omega_matrix,
)
from scalesym.phase import _conformal_field, _dot_rows
from scalesym.scaling import ScalingAction

from conftest import random_phase_point


# theta and omega on flat states z = (q, p) and flat tangent vectors
# v = (dq, dp): theta is the p . dq that the package reads as theta(X), and
# omega pairs u with omega_matrix(n) v, summed over the dq and dp blocks.

def theta(z, v) -> float:
    n = len(z) // 2
    return _dot_rows(z[n:], v[:n])


def omega(u, v) -> float:
    n = len(u) // 2
    w = omega_matrix(n) @ v
    return _dot_rows(u[:n], w[:n]) + _dot_rows(u[n:], w[n:])


def flat(*parts) -> np.ndarray:
    return np.concatenate([np.asarray(x, dtype=float) for x in parts])


def test_theta_hand_value():
    z = flat([1.0, 2.0], [3.0, 4.0])
    v = flat([1.0, 0.0], [7.0, 7.0])
    assert theta(z, v) == 3.0


def test_theta_zero_momentum():
    z = flat([2.0, -1.0, 5.0], [0.0, 0.0, 0.0])
    v = flat([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert theta(z, v) == 0.0


def test_theta_ignores_dp():
    z = flat([1.0, 1.0], [9.0, -3.0])
    v = flat([0.0, 0.0], [100.0, 100.0])
    assert theta(z, v) == 0.0


def test_omega_basis_pair():
    u = flat([1.0, 0.0], [0.0, 0.0])
    v = flat([0.0, 0.0], [1.0, 0.0])
    assert omega(u, v) == 1.0
    assert omega(v, u) == -1.0


def test_omega_vanishes_on_diagonal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = flat(rng.normal(size=4), rng.normal(size=4))
        assert omega(u, u) == 0.0


def test_omega_antisymmetric_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(25):
        u = flat(rng.normal(size=3), rng.normal(size=3))
        v = flat(rng.normal(size=3), rng.normal(size=3))
        w = flat(rng.normal(size=3), rng.normal(size=3))
        a, b = rng.normal(size=2)
        assert omega(u, v) == pytest.approx(-omega(v, u), abs=1e-14)
        combo = a * v + b * w
        assert omega(u, combo) == pytest.approx(
            a * omega(u, v) + b * omega(u, w), abs=1e-12)


def test_omega_nondegenerate_on_coordinate_basis():
    # every nonzero u pairs nontrivially with some basis vector
    rng = np.random.default_rng(2)
    n = 4
    basis = list(np.eye(2 * n))
    for _ in range(20):
        u = rng.normal(size=2 * n)
        assert max(abs(omega(u, e)) for e in basis) > 0.0


def test_omega_matches_matrix():
    rng = np.random.default_rng(3)
    n = 3
    matrix = omega_matrix(n)
    for _ in range(10):
        u = rng.normal(size=2 * n)
        v = rng.normal(size=2 * n)
        assert omega(u, v) == pytest.approx(u @ matrix @ v, rel=1e-13)


def test_conformal_field_kepler_momentum():
    # J_xi = xi p.q with parameter xi c = xi/2 gives (xi q, -xi p / 2)
    action = ScalingAction.uniform_dilation(1, 0.5, -1.0)
    field = momentum_field(action, 1.0)
    v = _conformal_field(field, 0.5, flat([2.0], [4.0]))
    assert v[:1] == pytest.approx([2.0])
    assert v[1:] == pytest.approx([-2.0])


def test_conformal_field_free_particle():
    free = ScalarField(value=lambda q, p: 0.5 * float(p @ p),
                       grad=lambda q, p: (np.zeros(len(q)), p.copy()))
    v = _conformal_field(free, 0.0, flat([3.0, 1.0], [2.0, -1.0]))
    assert v[:2] == pytest.approx([2.0, -1.0])
    assert v[2:] == pytest.approx([0.0, 0.0])


def test_conformal_field_damped_oscillator_point():
    osc = ScalarField(value=lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q),
                      grad=lambda q, p: (q.copy(), p.copy()))
    v = _conformal_field(osc, -0.1, flat([1.0], [2.0]))
    assert v[:1] == pytest.approx([2.0])
    assert v[1:] == pytest.approx([-1.2])


def test_defining_identity_hamiltonian_case():
    # omega(X_F^0, v) = dF(v) for the analytic oscillator field
    osc = ScalarField(value=lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q),
                      grad=lambda q, p: (q.copy(), p.copy()))
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = random_phase_point(rng, 2)
        v = flat(rng.normal(size=2), rng.normal(size=2))
        x = _conformal_field(osc, 0.0, z.flat())
        gq, gp = osc.grad(z.q, z.p)
        dF_v = gq @ v[:2] + gp @ v[2:]
        assert omega(x, v) == pytest.approx(dF_v, abs=1e-10)


def test_defining_identity_conformal_case():
    # omega(X_F^c, v) + c theta(v) = dF(v), the defining identity
    osc = ScalarField(value=lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q),
                      grad=lambda q, p: (q.copy(), p.copy()))
    rng = np.random.default_rng(5)
    for c in (-0.3, 0.5, 2.0):
        for _ in range(25):
            z = random_phase_point(rng, 3)
            v = flat(rng.normal(size=3), rng.normal(size=3))
            x = _conformal_field(osc, c, z.flat())
            gq, gp = osc.grad(z.q, z.p)
            dF_v = gq @ v[:3] + gp @ v[3:]
            assert omega(x, v) + c * theta(z.flat(), v) \
                == pytest.approx(dF_v, abs=1e-10)


def test_fd_gradient_exact_on_quadratic():
    assert fd_gradient(lambda x: x[0] ** 2, np.array([3.0])) == pytest.approx([6.0])


def test_fd_gradient_constant():
    g = fd_gradient(lambda x: 7.5, np.array([1.0, -2.0, 0.0]))
    assert g == pytest.approx([0.0, 0.0, 0.0])


def test_fd_gradient_two_body_potential():
    from scalesym import NBodySpec, nbody_potential_and_gradient

    spec = NBodySpec((1.0, 1.0), dim=3)
    q = np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])
    g = fd_gradient(lambda x: nbody_potential_and_gradient(spec, x)[0], q)
    assert g[:3] == pytest.approx([1.0, 0.0, 0.0], abs=1e-6)


def test_fd_gradient_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        fd_gradient(lambda x: 1.0 / (x[0] - 1.0) if x[0] <= 1.0 else np.inf,
                    np.array([1.0]))


@st.composite
def _rectangular_affine_maps(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6).filter(lambda k: k != m))
    entries = st.floats(-10.0, 10.0)
    return (draw(arrays(float, (m, n), elements=entries)),
            draw(arrays(float, m, elements=entries)),
            draw(arrays(float, n, elements=entries)))


@settings(derandomize=True, database=None, deadline=None)
@given(_rectangular_affine_maps())
def test_fd_jacobian_recovers_rectangular_affine_map(case):
    A, b, x = case
    jac = fd_jacobian(lambda w: A @ w + b, x)
    assert jac.shape == A.shape
    # central differences are exact on affine maps up to rounding
    assert jac == pytest.approx(A, abs=1e-6)


def test_fd_jacobian_of_a_view_of_its_input():
    jac = fd_jacobian(lambda w: w[1:], np.array([0.5, -2.0, 3.0]))
    assert jac == pytest.approx(np.eye(3)[1:], abs=1e-9)


def test_fd_jacobian_rejects_nonfinite_vector_output():
    with pytest.raises(NonFiniteValue):
        fd_jacobian(lambda w: np.array([w.sum(), np.inf if w[1] > 1.0 else 0.0]),
                    np.array([0.0, 1.0]))


def test_analytic_gradients_match_fd():
    # the package-wide gradient contract: 1e-6 relative at 100 probes
    from scalesym import NBodySpec, nbody_system

    system = nbody_system(NBodySpec((1.0, 2.0), dim=2))
    rng = np.random.default_rng(6)
    points = []
    while len(points) < 100:
        z = random_phase_point(rng, 4)
        if np.linalg.norm(z.q[:2] - z.q[2:]) > 0.4:
            points.append(z)
    assert check_gradient(system.hamiltonian_field(), points) < 1e-6


def test_check_gradient_reports_a_nan_gradient():
    # max(worst, nan) keeps worst, so a NaN dF/dq used to score 0.0
    field = ScalarField(value=lambda q, p: 0.5 * float(q @ q + p @ p),
                        grad=lambda q, p: (np.full_like(q, np.nan), p.copy()))
    assert np.isnan(check_gradient(field, [PhasePoint([0.3, -0.2], [0.1, 0.4])]))


def test_scalar_field_from_value():
    field = ScalarField.from_value(lambda q, p: float(q @ p))
    gq, gp = field.grad(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert gq == pytest.approx([3.0, 4.0], abs=1e-8)
    assert gp == pytest.approx([1.0, 2.0], abs=1e-8)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        PhasePoint([1.0, 2.0], [3.0])


def test_nonfinite_phase_point_rejected():
    with pytest.raises(NonFiniteValue):
        PhasePoint([np.nan], [1.0])
