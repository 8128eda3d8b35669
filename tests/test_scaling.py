import math

import numpy as np
import pytest

from scalesym import (
    NBodySpec,
    PhasePoint,
    ScalarField,
    ScalingAction,
    act_config,
    act_phase,
    canonical_theta,
    conformal_vector_field,
    generator_config,
    generator_phase,
    lift_exponent,
    momentum_field,
    momentum_map,
    nbody_system,
    phase_jacobian_fd,
    verify_scaling_symmetry,
)
from scalesym.errors import NonFiniteValue
from scalesym.phase import TangentVector

from conftest import kepler_action, quadratic_action, random_phase_point


# --- configuration action -------------------------------------------------

def test_act_config_uniform():
    a = kepler_action(2)
    assert act_config(a, 4.0, [1.0, 0.0]) == pytest.approx([4.0, 0.0])


def test_act_config_identity():
    a = kepler_action(3)
    q = np.array([0.3, -1.2, 2.0])
    assert act_config(a, 1.0, q) == pytest.approx(q)


def test_act_config_weighted():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    assert act_config(a, 2.0, [1.0, 1.0]) == pytest.approx([2.0, 4.0])


def test_act_config_rejects_nonpositive_g():
    a = kepler_action(1)
    with pytest.raises(ValueError):
        act_config(a, 0.0, [1.0])
    with pytest.raises(ValueError):
        act_phase(a, -2.0, PhasePoint([1.0], [1.0]))


# --- phase-space lift -----------------------------------------------------

def test_act_phase_kepler_momentum_scaling():
    # momenta scale by g^{c-1} under the uniform lift
    a = kepler_action(2)
    z = act_phase(a, 4.0, PhasePoint([1.0, 0.0], [1.0, 0.0]))
    assert z.q == pytest.approx([4.0, 0.0])
    assert z.p == pytest.approx([0.5, 0.0])


def test_act_phase_identity():
    a = kepler_action(2)
    z0 = PhasePoint([1.0, 2.0], [3.0, 4.0])
    z1 = act_phase(a, 1.0, z0)
    assert z1.q == pytest.approx(z0.q)
    assert z1.p == pytest.approx(z0.p)


def test_act_phase_weighted_hand_value():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    z = act_phase(a, 2.0, PhasePoint([1.0, 1.0], [1.0, 1.0]))
    assert z.q == pytest.approx([2.0, 4.0])
    assert z.p == pytest.approx([1.0, 0.5])


def test_act_phase_group_law():
    rng = np.random.default_rng(7)
    for action in (kepler_action(3), ScalingAction.dilation([1.0, 2.0, 0.5], 0.7, 0.0),
                   quadratic_action()):
        for _ in range(10):
            z = random_phase_point(rng, action.n)
            g, h = np.exp(rng.uniform(-0.7, 0.7, size=2))
            lhs = act_phase(action, g * h, z).flat()
            rhs = act_phase(action, g, act_phase(action, h, z)).flat()
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


# --- generators -----------------------------------------------------------

def test_generator_config_uniform():
    a = kepler_action(2)
    assert generator_config(a, 1.0, [2.0, 3.0]) == pytest.approx([2.0, 3.0])


def test_generator_config_zero_xi():
    a = kepler_action(2)
    assert generator_config(a, 0.0, [2.0, 3.0]) == pytest.approx([0.0, 0.0])


def test_generator_config_weighted():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    assert generator_config(a, 1.0, [1.0, 1.0]) == pytest.approx([1.0, 2.0])


def test_generator_phase_kepler():
    a = kepler_action(1)
    v = generator_phase(a, 1.0, PhasePoint([2.0], [4.0]))
    assert v.dq == pytest.approx([2.0])
    assert v.dp == pytest.approx([-2.0])


def test_generator_phase_zero_xi():
    a = kepler_action(2)
    v = generator_phase(a, 0.0, PhasePoint([1.0, 2.0], [3.0, 4.0]))
    assert v.flat() == pytest.approx(np.zeros(4))


def test_generator_phase_weighted_hand_value():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    v = generator_phase(a, 1.0, PhasePoint([1.0, 1.0], [1.0, 1.0]))
    assert v.dq == pytest.approx([1.0, 2.0])
    assert v.dp == pytest.approx([0.0, -1.0])


def test_generator_is_flow_derivative():
    # d/dt|0 act_phase(e^{t xi}, z) matches the lifted generator to 1e-6
    rng = np.random.default_rng(8)
    for action in (kepler_action(2), ScalingAction.dilation([1.0, 2.0], 0.7, 0.0),
                   quadratic_action()):
        for xi in (1.0, -0.6):
            z = random_phase_point(rng, action.n)
            t = 1e-6
            fd = (act_phase(action, float(np.exp(t * xi)), z).flat()
                  - act_phase(action, float(np.exp(-t * xi)), z).flat()) / (2 * t)
            gen = generator_phase(action, xi, z).flat()
            assert np.max(np.abs(fd - gen)) < 1e-6


def test_theta_pullback_scales_by_g_to_c():
    # theta(Phi_g* v) at Phi_g z = g^c theta(v) at z
    rng = np.random.default_rng(9)
    for action in (kepler_action(3), quadratic_action()):
        for _ in range(10):
            z = random_phase_point(rng, action.n)
            v = TangentVector(rng.normal(size=action.n), rng.normal(size=action.n))
            g = float(np.exp(rng.uniform(-0.7, 0.7)))
            jac = phase_jacobian_fd(action, g, z)
            pushed = TangentVector.from_flat(jac @ v.flat())
            lhs = canonical_theta(act_phase(action, g, z), pushed)
            rhs = g ** action.c * canonical_theta(z, v)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


# --- momentum map ---------------------------------------------------------

def test_momentum_uniform_hand_value():
    a = kepler_action(3)
    assert momentum_map(a, PhasePoint([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])) == 32.0


def test_momentum_zero_momentum():
    a = kepler_action(2)
    assert momentum_map(a, PhasePoint([1.0, 2.0], [0.0, 0.0])) == 0.0


def test_momentum_weighted():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    assert momentum_map(a, PhasePoint([1.0, 1.0], [1.0, 1.0])) == 3.0


def test_momentum_generates_the_lift():
    # X_{J_xi}^{xi c} equals the lifted generator (analytic, so exactly)
    rng = np.random.default_rng(10)
    a = kepler_action(2)
    for xi in (1.0, 2.5, -0.3):
        z = random_phase_point(rng, 2)
        field = momentum_field(a, xi)
        xv = conformal_vector_field(field, xi * a.c, z).flat()
        gen = generator_phase(a, xi, z).flat()
        assert np.max(np.abs(xv - gen)) == 0.0


def test_momentum_identity_custom_action_by_fd():
    a = quadratic_action()
    z = PhasePoint([0.7, -0.3], [0.2, 1.1])
    fd_field = ScalarField.from_value(momentum_field(a, 1.0).value)
    xv = conformal_vector_field(fd_field, a.c, z).flat()
    gen = generator_phase(a, 1.0, z).flat()
    assert np.max(np.abs(xv - gen)) < 1e-8


# --- lift exponent --------------------------------------------------------

@pytest.mark.parametrize("a,b,expected", [
    (2.0, -1.0, 0.5),   # Kepler
    (2.0, 2.0, 2.0),    # harmonic oscillator under dilation
    (2.0, -2.0, 0.0),   # degree -2 potentials get a symplectic action
])
def test_lift_exponent(a, b, expected):
    assert lift_exponent(a, b) == expected


# --- the verifier ---------------------------------------------------------

def _nbody_fixture():
    spec = NBodySpec((1.0, 1.0, 1.0), dim=3)
    system = nbody_system(spec)
    from scalesym.systems import _nbody_probe
    return system.hamiltonian_field(), _nbody_probe(spec)


def test_verifier_accepts_nbody_kepler():
    H, probe = _nbody_fixture()
    report = verify_scaling_symmetry(kepler_action(9), H, samples=32, seed=42,
                                     probe=probe)
    assert report.passed
    assert report.max_residual < 1e-8


def test_verifier_detects_wrong_lift_exponent():
    H, probe = _nbody_fixture()
    report = verify_scaling_symmetry(ScalingAction.uniform_dilation(9, 1.0, -1.0),
                                     H, samples=32, seed=42, probe=probe)
    assert not report.passed
    assert report.check("invariance").max_residual > 0.1
    # the c=1 lift is still conformally symplectic and J still generates it
    assert report.check("conformality").passed
    assert report.check("momentum-map").passed


def test_verifier_accepts_harmonic_oscillator_dilation():
    # K -> g^2 K, U -> g^2 U, omega -> g^2 omega for U = q^2 / 2, c = b = 2
    osc = ScalarField(value=lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q),
                      grad=lambda q, p: (q.copy(), p.copy()))
    report = verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0),
                                     osc, samples=32, seed=0)
    assert report.passed


def test_verifier_accepts_weighted_dilation_with_consistent_hamiltonian():
    # the momentum map of a weighted dilation is itself conformally
    # invariant with weight b = c, so (action, J) passes all five checks
    action = ScalingAction.dilation([1.0, 2.0, 0.5], c=0.8, b=0.8)
    report = verify_scaling_symmetry(action, momentum_field(action), samples=32,
                                     seed=3)
    assert report.passed
    assert report.max_residual < 1e-10


def test_verifier_accepts_custom_action_with_consistent_hamiltonian():
    # exercises the nonlinear-Jacobian paths of all five checks
    action = quadratic_action(c=0.5, b=0.5)
    report = verify_scaling_symmetry(action, momentum_field(action), samples=16,
                                     seed=4)
    assert report.passed, [c.to_dict() for c in report.checks]


def test_verifier_deterministic_given_seed():
    H, probe = _nbody_fixture()
    r1 = verify_scaling_symmetry(kepler_action(9), H, samples=8, seed=5, probe=probe)
    r2 = verify_scaling_symmetry(kepler_action(9), H, samples=8, seed=5, probe=probe)
    assert [c.max_residual for c in r1.checks] == [c.max_residual for c in r2.checks]


def test_custom_action_validation_rejects_bad_jacobian():
    good = quadratic_action()
    with pytest.raises(ValueError, match="dpsi"):
        ScalingAction.custom(2, 0.5, 0.0, good.psi,
                             lambda g, q: np.eye(2), good.xi_q, good.dxi_q)


def test_custom_action_validation_rejects_bad_generator():
    good = quadratic_action()
    with pytest.raises(ValueError, match="xi_q"):
        ScalingAction.custom(2, 0.5, 0.0, good.psi, good.dpsi,
                             lambda q: 2.0 * good.xi_q(q), good.dxi_q)


def test_custom_action_validation_rejects_bad_generator_jacobian():
    # the true D xi_Q of the quadratic action is [[1, 0], [2 BETA q_1, 1]]
    good = quadratic_action()
    with pytest.raises(ValueError, match="^dxi_q"):
        ScalingAction.custom(2, 0.5, 0.0, good.psi, good.dpsi, good.xi_q,
                             lambda q: np.eye(2))


@pytest.mark.parametrize("part", ["dpsi", "xi_q", "dxi_q"])
def test_custom_action_validation_rejects_a_nan_derivative(part):
    good = quadratic_action()
    parts = {"psi": good.psi, "dpsi": good.dpsi, "xi_q": good.xi_q,
             "dxi_q": good.dxi_q}
    parts[part] = {"dpsi": lambda g, q: np.full((2, 2), np.nan),
                   "xi_q": lambda q: np.full(2, np.nan),
                   "dxi_q": lambda q: np.full((2, 2), np.nan)}[part]
    with pytest.raises(ValueError, match=f"^{part}"):
        ScalingAction.custom(2, 0.5, 0.0, **parts)


def test_custom_action_validation_rejects_group_law_violation():
    def psi(g, q):
        return np.asarray(q, float) + (g - 1.0)  # translation, not an R+ action

    def dpsi(g, q):
        return np.eye(len(q))

    def xi_q(q):
        return np.ones(len(q))

    def dxi_q(q):
        return np.zeros((len(q), len(q)))

    with pytest.raises(ValueError, match="group law"):
        ScalingAction.custom(2, 0.5, 0.0, psi, dpsi, xi_q, dxi_q)


def test_phase_jacobian_fd_phase_points_do_not_grow_with_n(phase_point_count):
    rng = np.random.default_rng(6)
    counts = []
    for n in (2, 6):
        action, z = kepler_action(n), random_phase_point(rng, n)
        counts.append(phase_point_count(lambda: phase_jacobian_fd(action, 1.3, z)))
    assert counts[0] == counts[1]


def test_verifier_fails_a_nan_residual():
    # 3(|p|^2 + |q|^2)/2 is conformally invariant under the b = c = 2
    # dilation, but this copy is NaN wherever a lifted |q_i| exceeds 1.5;
    # probes sit in [-1.25, 1.25], so only lifted points reach the NaN.
    def value(q, p):
        if np.any(np.abs(q) > 1.5):
            return float("nan")
        return 1.5 * float(p @ p + q @ q)

    H = ScalarField(value=value, grad=lambda q, p: (3.0 * q, 3.0 * p))
    report = verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0),
                                     H, samples=32, seed=0)
    assert not report.passed
    assert not report.check("invariance").passed
    assert math.isnan(report.check("invariance").max_residual)
    assert math.isnan(report.max_residual)


@pytest.mark.parametrize("action", [ScalingAction.dilation([1.0, 2.0], c=2.0, b=2.0),
                                    quadratic_action(c=2.0, b=2.0)],
                         ids=["dilation", "custom"])
def test_verifier_validates_only_its_probes(phase_point_count, action):
    # the lifted probe, the fields of J and the generator stay bare arrays
    H = ScalarField(value=lambda q, p: 0.5 * float(p @ p + q @ q),
                    grad=lambda q, p: (q.copy(), p.copy()))

    def run():
        verify_scaling_symmetry(action, H, samples=8, seed=2)

    assert phase_point_count(run) == 8
    assert phase_point_count(run, TangentVector) == 0


def test_verifier_reports_a_nan_generator_jacobian_as_a_failed_check():
    # dxi_q is NaN only past |q_1| = 1.1, beyond the probes of custom's own
    # cross-checks but inside the verifier's [-1.25, 1.25]
    good = quadratic_action(c=0.5, b=0.5)

    def dxi_q(q):
        return good.dxi_q(q) if abs(q[0]) <= 1.1 else np.full((2, 2), np.nan)

    action = ScalingAction.custom(2, 0.5, 0.5, good.psi, good.dpsi, good.xi_q, dxi_q)
    report = verify_scaling_symmetry(action, momentum_field(good), samples=32, seed=4)
    assert not report.passed
    for name in ("momentum-map", "scaling-function"):
        assert not report.check(name).passed
        assert math.isnan(report.check(name).max_residual)
    assert report.check("invariance").passed


def test_verifier_does_not_redraw_past_a_fault_in_the_field():
    # Only a singular or failing draw is redrawn; a TypeError in H is a bug
    # in H and must surface, not turn into "could not draw a probe".
    def value(q, p):
        return len(float(q @ q))

    H = ScalarField(value=value, grad=lambda q, p: (q, p))
    with pytest.raises(TypeError):
        verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0), H)


def test_verifier_redraws_a_probe_where_the_field_is_singular():
    def value(q, p):
        if q[0] < 0:
            raise ZeroDivisionError("singular")
        return 1.5 * float(p @ p + q @ q)

    H = ScalarField(value=value, grad=lambda q, p: (3.0 * q, 3.0 * p))
    report = verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0),
                                     H, samples=4)
    assert report.passed
    with pytest.raises(NonFiniteValue):
        verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0),
                                ScalarField(value=lambda q, p: 1 / 0,
                                            grad=lambda q, p: (q, p)))
