import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalesym import (
    NBodySpec,
    PhasePoint,
    ScalarField,
    ScalingAction,
    act_config,
    act_phase,
    generator_config,
    generator_phase,
    lift_exponent,
    make_system,
    momentum_field,
    momentum_map,
    nbody_system,
    omega_matrix,
    phase_jacobian_fd,
    verify_scaling_symmetry,
)
from scalesym.errors import DimensionMismatch, NonFiniteValue
from scalesym.phase import _conformal_field, _dot_rows, _worst
from scalesym.scaling import _conformality_defects, _default_probe, _rel, \
    generator_config_jacobian

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
        act_phase(a, -2.0, np.array([1.0]), np.array([1.0]))


# --- phase-space lift -----------------------------------------------------

def test_act_phase_kepler_momentum_scaling():
    # momenta scale by g^{c-1} under the uniform lift
    a = kepler_action(2)
    q, p = act_phase(a, 4.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert q == pytest.approx([4.0, 0.0])
    assert p == pytest.approx([0.5, 0.0])


def test_act_phase_identity():
    a = kepler_action(2)
    q0, p0 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    q1, p1 = act_phase(a, 1.0, q0, p0)
    assert q1 == pytest.approx(q0)
    assert p1 == pytest.approx(p0)


def test_act_phase_weighted_hand_value():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    q, p = act_phase(a, 2.0, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert q == pytest.approx([2.0, 4.0])
    assert p == pytest.approx([1.0, 0.5])


def test_act_phase_group_law():
    rng = np.random.default_rng(7)
    for action in (kepler_action(3), ScalingAction.dilation([1.0, 2.0, 0.5], 0.7, 0.0),
                   quadratic_action()):
        for _ in range(10):
            z = random_phase_point(rng, action.n)
            g, h = np.exp(rng.uniform(-0.7, 0.7, size=2))
            lhs = np.concatenate(act_phase(action, g * h, z.q, z.p))
            rhs = np.concatenate(act_phase(action, g, *act_phase(action, h, z.q, z.p)))
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
    dq, dp = generator_phase(a, 1.0, np.array([2.0]), np.array([4.0]))
    assert dq == pytest.approx([2.0])
    assert dp == pytest.approx([-2.0])


def test_generator_phase_zero_xi():
    a = kepler_action(2)
    v = generator_phase(a, 0.0, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.concatenate(v) == pytest.approx(np.zeros(4))


def test_generator_phase_weighted_hand_value():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    dq, dp = generator_phase(a, 1.0, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert dq == pytest.approx([1.0, 2.0])
    assert dp == pytest.approx([0.0, -1.0])


def test_generator_is_flow_derivative():
    # d/dt|0 act_phase(e^{t xi}, z) matches the lifted generator to 1e-6
    rng = np.random.default_rng(8)
    for action in (kepler_action(2), ScalingAction.dilation([1.0, 2.0], 0.7, 0.0),
                   quadratic_action()):
        for xi in (1.0, -0.6):
            z = random_phase_point(rng, action.n)
            t = 1e-6
            fd = (np.concatenate(act_phase(action, float(np.exp(t * xi)), z.q, z.p))
                  - np.concatenate(act_phase(action, float(np.exp(-t * xi)), z.q, z.p))
                  ) / (2 * t)
            gen = np.concatenate(generator_phase(action, xi, z.q, z.p))
            assert np.max(np.abs(fd - gen)) < 1e-6


def test_theta_pullback_scales_by_g_to_c():
    # theta(Phi_g* v) at Phi_g z = g^c theta(v) at z, with theta = p . dq
    rng = np.random.default_rng(9)
    for action in (kepler_action(3), quadratic_action()):
        n = action.n
        for _ in range(10):
            z = random_phase_point(rng, n)
            v = np.concatenate((rng.normal(size=n), rng.normal(size=n)))
            g = float(np.exp(rng.uniform(-0.7, 0.7)))
            jac = phase_jacobian_fd(action, g, z)
            pushed = jac @ v
            lhs = _dot_rows(act_phase(action, g, z.q, z.p)[1], pushed[:n])
            rhs = g ** action.c * _dot_rows(z.p, v[:n])
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


# --- momentum map ---------------------------------------------------------

def test_momentum_uniform_hand_value():
    a = kepler_action(3)
    assert momentum_map(a, np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == 32.0


def test_momentum_zero_momentum():
    a = kepler_action(2)
    assert momentum_map(a, np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 0.0


def test_momentum_weighted():
    a = ScalingAction.dilation([1.0, 2.0], c=1.0, b=0.0)
    assert momentum_map(a, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 3.0


def test_momentum_generates_the_lift():
    # X_{J_xi}^{xi c} equals the lifted generator (analytic, so exactly)
    rng = np.random.default_rng(10)
    a = kepler_action(2)
    for xi in (1.0, 2.5, -0.3):
        z = random_phase_point(rng, 2)
        field = momentum_field(a, xi)
        xv = _conformal_field(field, xi * a.c, z.flat())
        gen = np.concatenate(generator_phase(a, xi, z.q, z.p))
        assert np.max(np.abs(xv - gen)) == 0.0


def test_momentum_identity_custom_action_by_fd():
    a = quadratic_action()
    z = PhasePoint([0.7, -0.3], [0.2, 1.1])
    fd_field = ScalarField.from_value(momentum_field(a, 1.0).value)
    xv = _conformal_field(fd_field, a.c, z.flat())
    gen = np.concatenate(generator_phase(a, 1.0, z.q, z.p))
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
    osc = ScalarField.from_value(lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q))
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

    H = ScalarField.from_value(value)  # the verifier reads only H's value
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
    H = ScalarField.from_value(lambda q, p: 0.5 * float(p @ p + q @ q))

    def run():
        verify_scaling_symmetry(action, H, samples=8, seed=2)

    assert phase_point_count(run) == 8


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


def test_verifier_reports_a_non_finite_lift_as_a_failed_check():
    # dpsi is NaN only past |q_1| = 1.1, beyond the probes of custom's own
    # cross-checks but inside the verifier's [-1.25, 1.25], so the lift has
    # no finite-difference Jacobian next to some probes
    good = quadratic_action(c=0.5, b=0.5)

    def dpsi(g, q):
        return good.dpsi(g, q) if abs(q[0]) <= 1.1 else np.full((2, 2), np.nan)

    action = ScalingAction.custom(2, 0.5, 0.5, good.psi, dpsi, good.xi_q, good.dxi_q)
    report = verify_scaling_symmetry(action, momentum_field(good), samples=32, seed=4)
    assert not report.passed
    assert not report.check("conformality").passed
    assert math.isnan(report.check("conformality").max_residual)


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

    H = ScalarField.from_value(value)
    report = verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0),
                                     H, samples=4)
    assert report.passed
    with pytest.raises(NonFiniteValue):
        verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0),
                                ScalarField(value=lambda q, p: 1 / 0,
                                            grad=lambda q, p: (q, p)))


def test_verifier_rejects_a_value_written_for_one_state():
    # float() reduces the whole (2S, n) stack of probes and lifted probes to
    # one number, which no check could read row by row
    H = ScalarField(value=lambda q, p: 0.5 * float(np.sum(p * p + q * q)),
                    grad=lambda q, p: (q.copy(), p.copy()))
    with pytest.raises(DimensionMismatch, match="value returned shape"):
        verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 2.0, 2.0), H,
                                samples=4)


# --- the stacked verifier against a loop over single probes ---------------

def _same_bits(a, b) -> bool:
    """Equal bit for bit, with any two NaNs taken as equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((a.view(np.int64) == b.view(np.int64))
                                              | (np.isnan(a) & np.isnan(b))))


def _full_fd_defect(action, g: float, x) -> float:
    """Conformality of one probe from the full 2n x 2n lift Jacobian."""
    n = action.n
    try:
        jac = phase_jacobian_fd(action, g, PhasePoint(x[:n], x[n:]))
    except NonFiniteValue:
        return math.nan
    omega = omega_matrix(n)
    return float(np.max(np.abs(jac.T @ omega @ jac - g ** action.c * omega)))


def assert_conformality_is_full_fd_defect(action, g, x):
    """_conformality_defects on the (S, 2n) stack x, and on each row alone,
    equals the full-Jacobian defect probe by probe; a stack with a
    non-finite lift raises, as a single probe with one does."""
    expected = [_full_fd_defect(action, float(gk[0]), xk) for gk, xk in zip(g, x)]
    scale = np.array([float(gk[0]) ** action.c for gk in g])
    for k in range(len(x)):
        try:
            alone = _conformality_defects(action, g[k:k + 1], scale[k:k + 1], x[k:k + 1])
        except NonFiniteValue:
            alone = [math.nan]
        assert _same_bits(alone, expected[k:k + 1])
    if np.isnan(expected).any():
        with pytest.raises(NonFiniteValue):
            _conformality_defects(action, g, scale, x)
    else:
        assert _same_bits(_conformality_defects(action, g, scale, x), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 47, 60])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_dilation_conformality_from_the_diagonal_is_the_full_fd_defect(n, weighted):
    rng = np.random.default_rng(10 * n + weighted)
    for _ in range(3):
        weights = rng.uniform(-2.0, 3.0, n) if weighted else np.ones(n)
        action = ScalingAction.dilation(weights, float(rng.uniform(-3.0, 3.0)), 0.0)
        g = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), (6, 1)))
        assert_conformality_is_full_fd_defect(action, g, rng.uniform(-1.25, 1.25, (6, 2 * n)))


def test_dilation_conformality_with_a_non_finite_lift_is_nan_on_both_sides():
    # g^1100 overflows for g > 1.9 and g^(0.5 - 1100) for g < 0.53, so only
    # the first and last probes have a lift that is not finite
    action = ScalingAction.dilation([1.0, 1100.0, 2.0], 0.5, 0.0)
    g = np.array([[1.95], [1.2], [0.9], [0.51]])
    x = np.random.default_rng(1).uniform(-1.25, 1.25, (4, 6))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan([_full_fd_defect(action, float(gk[0]), xk)
                         for gk, xk in zip(g, x)]).tolist() == [True, False, False, True]
        assert_conformality_is_full_fd_defect(action, g, x)
        assert_conformality_is_full_fd_defect(action, g[1:3], x[1:3])


def test_custom_action_conformality_on_a_stack_is_the_per_probe_defect():
    rng = np.random.default_rng(12)
    g = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), (16, 1)))
    assert_conformality_is_full_fd_defect(quadratic_action(c=0.7), g,
                                          rng.uniform(-1.25, 1.25, (16, 4)))


def _rel_one(err: float, *scales: float) -> float:
    return err / max(1.0, *(abs(s) for s in scales))


def per_probe_residuals(action, H, samples, seed, probe=None) -> dict:
    """The five checks as a loop over single probes, each state on its own
    through the one-state API; returns each check's worst residual."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(["conformality", "invariance", "momentum-map",
                           "scaling-function", "momentum-invariance"], 0.0)
    for _ in range(samples):
        z = probe(rng) if probe is not None else _default_probe(action, H, rng)
        g = float(np.exp(rng.uniform(-np.log(2.0), np.log(2.0))))
        xi = float(rng.uniform(0.25, 2.0))
        q, p = z.q, z.p
        residual = {"conformality": _rel_one(_full_fd_defect(action, g, z.flat()),
                                             g ** action.c)}
        h0 = H.value(q, p)
        q_g, p_g = act_phase(action, g, q, p)
        h1 = H.value(q_g, p_g)
        residual["invariance"] = _rel_one(abs(h1 - g ** action.b * h0), h1,
                                          g ** action.b * h0)
        djac = generator_config_jacobian(action, xi, q)
        gq, gp = djac.T @ p, generator_config(action, xi, q)
        xv = np.concatenate((gp, -gq + (xi * action.c) * p))
        gen = np.concatenate((generator_config(action, xi, q),
                              action.c * xi * p - djac.T @ p))
        residual["momentum-map"] = _rel_one(float(np.max(np.abs(xv - gen))),
                                            float(np.max(np.abs(gen))))
        j0 = momentum_map(action, q, p)
        gq = generator_config_jacobian(action, 1.0, q).T @ p
        gp = generator_config(action, 1.0, q)
        directional = float(gq @ gp + gp @ (-gq + action.c * p))
        residual["scaling-function"] = _rel_one(abs(directional - action.c * j0), j0)
        j1 = momentum_map(action, q_g, p_g)
        residual["momentum-invariance"] = _rel_one(abs(j1 - g ** action.c * j0), j1, j0)
        for name in worst:
            worst[name] = _worst(worst[name], residual[name])
    return worst


def _oscillator():
    return ScalarField.from_value(lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q))


def _built(spec):
    built = make_system(spec)
    return built.action, built.system.hamiltonian_field(), built.probe


def _nan_past_1_5():
    def value(q, p):
        return float("nan") if np.any(np.abs(q) > 1.5) else 1.5 * float(p @ p + q @ q)

    return ScalarField.from_value(value)


def _custom_with_nan_dpsi():
    good = quadratic_action(c=0.5, b=0.5)

    def dpsi(g, q):
        return good.dpsi(g, q) if abs(q[0]) <= 1.1 else np.full((2, 2), np.nan)

    return ScalingAction.custom(2, 0.5, 0.5, good.psi, dpsi, good.xi_q, good.dxi_q)


REPORT_CASES = {
    "nbody-3-in-1d": lambda: _built({"type": "nbody", "masses": [1, 2, 0.5], "dim": 1}),
    "nbody-3-in-2d": lambda: _built({"type": "nbody", "masses": [1, 1, 2], "dim": 2}),
    "nbody-4-in-3d": lambda: _built({"type": "nbody", "masses": [1, 3, 0.5, 2], "dim": 3}),
    "nbody-10-in-2d": lambda: _built({"type": "nbody", "masses": [1.0] * 10, "dim": 2}),
    "nbody-10-in-3d": lambda: _built({"type": "nbody",
                                      "masses": [0.5 + 0.2 * k for k in range(10)]}),
    "nbody-20-in-3d": lambda: _built({"type": "nbody",
                                      "masses": [0.5 + 0.1 * k for k in range(20)]}),
    "kepler": lambda: _built({"type": "anisotropic-kepler", "mu": 2.0}),
    "power-law": lambda: _built({"type": "homogeneous", "alpha": -1.5, "n": 3, "k": -2}),
    "power-law-mass-matrix": lambda: _built(
        {"type": "homogeneous", "alpha": -1.5, "n": 3, "k": -2,
         "mass_matrix": [[2, .3, 0], [.3, 1, .1], [0, .1, 1.5]]}),
    "weighted-dilation": lambda: _built(
        {"type": "nbody", "masses": [1, 2, 0.5], "dim": 2,
         "action": {"weights": 2, "c": 1.0, "b": -2.0}}),
    "per-coordinate-dilation": lambda: _built(
        {"type": "homogeneous", "alpha": 2, "n": 4, "k": 0.5,
         "action": {"weights": [1, 2, 0.5, 1.5], "c": 1.5, "b": 2}}),
    "mis-set-b": lambda: _built({"type": "nbody", "masses": [1, 1, 2], "dim": 2,
                                 "action": {"c": 0.5, "b": -0.9}}),
    "mis-set-c": lambda: _built({"type": "nbody", "masses": [1, 1, 2], "dim": 2,
                                 "action": {"c": 0.6, "b": -1.0}}),
    "oscillator": lambda: (ScalingAction.uniform_dilation(2, 2.0, 2.0), _oscillator(), None),
    "nan-hamiltonian": lambda: (ScalingAction.uniform_dilation(2, 2.0, 2.0),
                                _nan_past_1_5(), None),
    "custom": lambda: (quadratic_action(c=0.5, b=0.5),
                       momentum_field(quadratic_action(c=0.5, b=0.5)), None),
    "custom-non-finite-lift": lambda: (_custom_with_nan_dpsi(),
                                       momentum_field(quadratic_action(c=0.5, b=0.5)),
                                       None),
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_stacked_verifier_matches_the_per_probe_loop(case):
    # NumPy's array pow differs from the scalar g ** c in the last bit for
    # some g; an array g ** c changes mis-set-c's conformality at seed 2, and
    # an array g ** b power-law's invariance at seed 1.
    action, H, probe = REPORT_CASES[case]()
    for seed in range(3):
        report = verify_scaling_symmetry(action, H, samples=32, seed=seed, probe=probe)
        expected = per_probe_residuals(action, H, 32, seed, probe)
        assert [c.name for c in report.checks] == list(expected)
        for check in report.checks:
            assert _same_bits(check.max_residual, expected[check.name]), check.name


def test_rel_skips_a_nan_scale_as_pythons_max_does():
    err = np.array([1.0, 2.0, 3.0, np.nan, 4.0])
    h1 = np.array([np.nan, -5.0, 0.5, 2.0, np.inf])
    h0 = np.array([3.0, np.nan, np.nan, 1.0, -2.0])
    expected = [_rel_one(e, a, b) for e, a, b in zip(err, h1, h0)]
    assert _same_bits(_rel(err, h1, h0), expected)
    assert _same_bits(expected[:3], [1.0 / 3.0, 2.0 / 5.0, 3.0])


# --- a mis-set exponent fails the check that reads H ----------------------

@st.composite
def _nbody_or_power_law_specs(draw):
    if draw(st.booleans()):
        bodies = draw(st.integers(2, 6))
        masses = draw(st.lists(st.floats(0.1, 5.0), min_size=bodies, max_size=bodies))
        return {"type": "nbody", "masses": masses, "dim": draw(st.integers(2, 3))}
    alpha = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 3.0))
    return {"type": "homogeneous", "alpha": alpha, "n": draw(st.integers(1, 4))}


@settings(derandomize=True, database=None, deadline=None)
@given(_nbody_or_power_law_specs(), st.sampled_from(["c", "b"]),
       st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.5), st.integers(0, 1000))
def test_a_mis_set_c_or_b_fails_invariance(spec, exponent, sign, size, seed):
    built = make_system(spec)
    H = built.system.hamiltonian_field()
    own = verify_scaling_symmetry(built.action, H, seed=seed, probe=built.probe)
    assert own.passed, own.to_dict()
    moved = {"c": built.action.c, "b": built.action.b}
    moved[exponent] += sign * size
    mis_set = make_system(spec | {"action": moved})
    report = verify_scaling_symmetry(mis_set.action, H, seed=seed, probe=built.probe)
    assert not report.passed
    assert report.check("invariance").max_residual > report.tol
