import math

import numpy as np
import pytest

from scalesym import (
    NBodySpec,
    PhasePoint,
    RelativeEquilibrium,
    ScalarField,
    ScalingAction,
    SchemaError,
    SolverDidNotConverge,
    augmented_hamiltonian,
    augmented_kinetic,
    augmented_potential,
    central_config_residual,
    certify_relative_equilibrium,
    euler_collinear_oracle,
    fd_gradient,
    lagrange_triangle,
    locked_inertia,
    locked_inertia_gradient,
    make_system,
    min_pairwise_distance,
    momentum_from_config,
    nbody_system,
    relative_equilibrium_residual,
    solve_central_configuration,
    verify_homothetic_orbit,
    verify_scaling_symmetry,
    xi_squared_from_config,
)

from conftest import kepler_action, random_phase_point


# --- locked inertia and augmented quantities --------------------------------

def test_locked_inertia_two_body(two_body):
    _, system, action, q = two_body
    assert locked_inertia(system, action, q) == pytest.approx(0.5)


def test_locked_inertia_vanishes_at_origin(two_body):
    _, system, action, _ = two_body
    assert locked_inertia(system, action, np.zeros(6)) == 0.0


def test_locked_inertia_triangle(triangle):
    _, system, action, q = triangle
    assert locked_inertia(system, action, q) == pytest.approx(1.0)


def test_locked_inertia_gradient_matches_fd(triangle):
    _, system, action, q = triangle
    fd = fd_gradient(lambda x: locked_inertia(system, action, x), q)
    assert locked_inertia_gradient(system, action, q) == pytest.approx(fd, abs=1e-7)


def test_augmented_potential_two_body(two_body):
    _, system, action, q = two_body
    assert augmented_potential(system, action, 2.0, q) == pytest.approx(-2.0)


def test_augmented_potential_zero_xi(two_body):
    _, system, action, q = two_body
    assert augmented_potential(system, action, 0.0, q) == pytest.approx(-1.0)


def test_augmented_potential_triangle(triangle):
    _, system, action, q = triangle
    assert augmented_potential(system, action, math.sqrt(6.0), q) == pytest.approx(-6.0)


def test_momentum_from_config_two_body(two_body):
    _, system, action, q = two_body
    p = momentum_from_config(system, action, 2.0, q)
    assert p == pytest.approx([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])


def test_momentum_from_config_zero_xi(two_body):
    _, system, action, q = two_body
    assert momentum_from_config(system, action, 0.0, q) == pytest.approx(np.zeros(6))


def test_momentum_from_config_unequal_masses():
    system = nbody_system(NBodySpec((1.0, 2.0), dim=2))
    action = kepler_action(4)
    p = momentum_from_config(system, action, 1.0, np.array([1.0, 0.0, -0.5, 0.0]))
    assert p == pytest.approx([1.0, 0.0, -1.0, 0.0])


# --- residuals ---------------------------------------------------------------

def test_cc_residual_triangle_is_zero(triangle):
    _, system, action, q = triangle
    res = central_config_residual(system, action, math.sqrt(6.0), q)
    assert np.max(np.abs(res)) < 1e-12


def test_cc_residual_two_body_is_zero(two_body):
    _, system, action, q = two_body
    res = central_config_residual(system, action, 2.0, q)
    assert np.max(np.abs(res)) < 1e-12


def test_cc_residual_wrong_multiplier(triangle):
    # residual is linear in xi^2: off by 1/2 * |dxi^2| * |q_i| per body
    _, system, action, q = triangle
    res = central_config_residual(system, action, math.sqrt(5.0), q)
    per_body = np.linalg.norm(res.reshape(3, 2), axis=1)
    assert per_body == pytest.approx(np.full(3, 1.0 / (2.0 * math.sqrt(3.0))), rel=1e-10)


def test_re_residual_zero_at_equilibrium(two_body):
    _, system, action, q = two_body
    z = PhasePoint(q, momentum_from_config(system, action, 2.0, q))
    res = relative_equilibrium_residual(system.hamiltonian_field(), action, 2.0, z)
    assert np.max(np.abs(res)) < 1e-13


def test_re_residual_detects_momentum_mismatch(two_body):
    _, system, action, q = two_body
    res = relative_equilibrium_residual(system.hamiltonian_field(), action, 2.0,
                                        PhasePoint(q, np.zeros(6)))
    xi_m_q = 2.0 * system.mass_matrix @ q
    assert np.max(np.abs(res)) > 0.0
    # dq block reduces to grad U = xi M q at the central configuration
    assert np.linalg.norm(res[:6]) == pytest.approx(np.linalg.norm(xi_m_q), rel=1e-10)


# Planar 3-body masses for the classical (rotating) relative equilibria.
MASSES = (1.0, 1.3, 0.8)


def rotation_action(bodies: int, b: float = 0.0) -> ScalingAction:
    """Psi_g = R(log g), the rotation by log g of every body in the plane:
    an R+ action with c = 0, so its lift is symplectic."""
    generator = np.kron(np.eye(bodies), [[0.0, -1.0], [1.0, 0.0]])

    def rotation(g):
        angle = math.log(g)
        cos, sin = math.cos(angle), math.sin(angle)
        return np.kron(np.eye(bodies), [[cos, -sin], [sin, cos]])

    return ScalingAction.custom(2 * bodies, 0.0, b, lambda g, q: rotation(g) @ q,
                                lambda g, q: rotation(g), lambda q: generator @ q,
                                lambda q: generator)


def quartic_field() -> ScalarField:
    """H = |p|^4 / 4 - 1/|q|, a Hamiltonian that is not simple mechanical.
    Under the uniform dilation its weight is b = -1 and its lift exponent
    c = 3/4."""

    def value(q, p):
        p2 = (p * p).sum(axis=-1)
        return 0.25 * p2 * p2 - 1.0 / np.sqrt((q * q).sum(axis=-1))

    def grad(q, p):
        r2 = (q * q).sum(axis=-1)[..., None]
        return q / (r2 * np.sqrt(r2)), (p * p).sum(axis=-1)[..., None] * p

    return ScalarField(value=value, grad=grad)


def quartic_equilibrium(q):
    """The quartic H's relative equilibrium over q: p = lam q with
    lam^4 = 4 |q|^-5, and multiplier xi = lam^3 |q|^2."""
    q = np.asarray(q, dtype=float)
    r = math.sqrt(q @ q)
    lam = (4.0 * r ** -5) ** 0.25
    return PhasePoint(q, lam * q), lam ** 3 * r * r


def _nbody_dilation_case():
    system = nbody_system(NBodySpec((1.0, 1.0), dim=3))
    return (system.hamiltonian_field(), kepler_action(6),
            lambda q: np.linalg.norm(q[:3] - q[3:]) >= 0.4)


def _nbody_rotation_case():
    spec = NBodySpec(MASSES, dim=2)
    return (nbody_system(spec).hamiltonian_field(), rotation_action(3),
            lambda q: min_pairwise_distance(spec, q) >= 0.4)


def _quartic_dilation_case():
    return (quartic_field(), ScalingAction.uniform_dilation(2, 0.75, -1.0),
            lambda q: np.linalg.norm(q) >= 0.4)


RE_CASES = {"nbody-dilation": _nbody_dilation_case,
            "nbody-rotation": _nbody_rotation_case,
            "quartic-dilation": _quartic_dilation_case}


@pytest.mark.parametrize("case", RE_CASES)
def test_re_residual_matches_fd_differential(case):
    # residual == FD differential of (H - xi J) plus (c xi) (p, 0) at random z
    H, action, separated = RE_CASES[case]()
    n = action.n
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(5):
        z = random_phase_point(rng, n)
        if not separated(z.q):
            continue
        xi = float(rng.uniform(0.3, 2.0))
        res = relative_equilibrium_residual(H, action, xi, z)
        h_xi = lambda w: augmented_hamiltonian(H, action, xi, PhasePoint.from_flat(w))
        fd = fd_gradient(h_xi, z.flat())
        fd[:n] += action.c * xi * z.p
        assert np.max(np.abs(res - fd)) < 1e-6
        checked += 1
    assert checked


# --- classical relative equilibria: c = b = 0 ---------------------------------

def test_rotation_is_a_symmetry_of_the_planar_three_body_problem():
    built = make_system({"type": "nbody", "masses": list(MASSES), "dim": 2})
    H = built.system.hamiltonian_field()
    report = verify_scaling_symmetry(rotation_action(3), H, probe=built.probe)
    assert report.passed and report.check("invariance").max_residual < 1e-14
    # H is rotation invariant, so a Hamiltonian weight b != 0 is refuted
    wrong = verify_scaling_symmetry(rotation_action(3, b=0.3), H, probe=built.probe)
    assert not wrong.check("invariance").passed
    assert wrong.check("invariance").max_residual > 0.1


def test_solver_certifies_a_rotating_lagrange_triangle():
    built = make_system({"type": "nbody", "masses": list(MASSES), "dim": 2})
    system, dilation = built.system, built.action
    rng = np.random.default_rng(3)
    q0 = lagrange_triangle(MASSES, 1.0) * (1.0 + rng.uniform(-0.05, 0.05, size=6))
    rotating = solve_central_configuration(system, rotation_action(3), q0,
                                           inertia_target=1.0)
    expanding = solve_central_configuration(system, dilation, q0, inertia_target=1.0)
    assert rotating.certified and expanding.certified
    pos = rotating.q.reshape(3, 2)
    dists = [np.linalg.norm(pos[i] - pos[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert max(dists) - min(dists) < 1e-8
    # the same CC, spun (c = 0) or dilated (c = 1/2): xi_rot^2 = (1 - c) xi_dil^2
    assert rotating.xi ** 2 / expanding.xi ** 2 == pytest.approx(1.0 - dilation.c,
                                                                 abs=1e-9)


def test_rotating_lagrange_triangle_is_certified_as_x_h_equal_to_xi_p():
    system = nbody_system(NBodySpec(MASSES, dim=2))
    H, action = system.hamiltonian_field(), rotation_action(3)
    q = lagrange_triangle(MASSES, 1.0)
    omega = math.sqrt(sum(MASSES))  # omega^2 = sum(m) / s^3 for side s = 1
    z = PhasePoint(q, momentum_from_config(system, action, omega, q))
    assert np.max(np.abs(relative_equilibrium_residual(H, action, omega, z))) <= 1e-15
    # a 1% mis-set rotation rate, with p rebuilt from it, is refuted
    missed = certify_relative_equilibrium(system, action, q, 1.01 * omega)
    assert not missed.certified
    assert missed.residual_full == pytest.approx(3.66e-2, rel=0.01)
    # a mis-set lift exponent adds c xi p to the dq rows
    skewed = ScalingAction(6, 0.3, 0.0, psi=action.psi, dpsi=action.dpsi,
                           xi_q=action.xi_q, dxi_q=action.dxi_q)
    assert np.max(np.abs(relative_equilibrium_residual(H, skewed, omega, z))) > 1e-3
    # b = c = 0, so eta(t) = e^{xi t}: the rigid rotation at rate omega
    re = certify_relative_equilibrium(system, action, q, omega)
    report = verify_homothetic_orbit(H, action, re, 1.0, 1e-3)
    assert re.certified and report.homothetic_deviation < 1e-11


# --- a relative equilibrium of a Hamiltonian that is not simple mechanical ----

def test_quartic_hamiltonian_is_a_scaling_symmetry_at_c_three_quarters():
    H = quartic_field()
    report = verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 0.75, -1.0), H)
    assert report.passed
    mechanical = verify_scaling_symmetry(ScalingAction.uniform_dilation(2, 0.5, -1.0), H)
    assert mechanical.check("invariance").max_residual > 0.4


@pytest.mark.parametrize("q", [(1.0, 0.0), (0.3, -0.7), (2.0, 1.5)])
def test_quartic_relative_equilibria_are_certified(q):
    H = quartic_field()
    z, xi = quartic_equilibrium(q)
    action = ScalingAction.uniform_dilation(2, 0.75, -1.0)
    assert np.max(np.abs(relative_equilibrium_residual(H, action, xi, z))) <= 1e-15
    mechanical = ScalingAction.uniform_dilation(2, 0.5, -1.0)
    assert np.max(np.abs(relative_equilibrium_residual(H, mechanical, xi, z))) > 0.1
    assert np.max(np.abs(relative_equilibrium_residual(H, action, 1.01 * xi, z))) > 1e-2


def test_quartic_relative_equilibrium_follows_its_homothetic_orbit():
    H = quartic_field()
    action = ScalingAction.uniform_dilation(2, 0.75, -1.0)
    z, xi = quartic_equilibrium((1.0, 0.5))
    residual = float(np.max(np.abs(relative_equilibrium_residual(H, action, xi, z))))
    # no mechanical Legendre map, so the certificate is built from the residual
    re = RelativeEquilibrium(q=z.q, p=z.p, xi=xi, residual_cc=math.nan,
                             residual_full=residual, certified=residual <= 1e-14,
                             tol=1e-14)
    report = verify_homothetic_orbit(H, action, re, 1.0, 1e-3)
    assert re.certified and report.homothetic_deviation < 1e-11


def test_augmented_hamiltonian_decomposition(two_body):
    # H_xi = K_xi + U_xi pointwise
    _, system, action, _ = two_body
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = random_phase_point(rng, 6)
        if np.linalg.norm(z.q[:3] - z.q[3:]) < 0.3:
            continue
        xi = float(rng.uniform(-2.0, 2.0))
        split = augmented_kinetic(system, action, xi, z) \
            + augmented_potential(system, action, xi, z.q)
        assert augmented_hamiltonian(system.hamiltonian_field(), action, xi, z) \
            == pytest.approx(split, abs=1e-10)


# --- xi^2 from the configuration ----------------------------------------------

def test_xi_squared_two_body(two_body):
    _, system, _, q = two_body
    assert xi_squared_from_config(system, q) == pytest.approx(4.0)


def test_xi_squared_triangle(triangle):
    _, system, _, q = triangle
    assert xi_squared_from_config(system, q) == pytest.approx(6.0)


def test_xi_squared_scaling_covariance(triangle):
    # xi^2(lambda q) = lambda^{alpha - 2} xi^2(q) with alpha = -1
    _, system, _, q = triangle
    assert xi_squared_from_config(system, 2.0 * q) == pytest.approx(0.75)


def test_xi_squared_requires_alpha():
    from scalesym import SimpleMechanicalSystem

    system = SimpleMechanicalSystem(
        np.eye(2), lambda q: (float(q @ q), 2.0 * np.asarray(q, float)))
    with pytest.raises(ValueError, match="alpha"):
        xi_squared_from_config(system, np.array([1.0, 0.0]))


def test_potential_and_gradient_is_evaluated_once_per_rk4_call():
    from scalesym import SimpleMechanicalSystem, integrate

    calls = []

    def both(q):
        calls.append(np.shape(q))
        return np.sum(q * q, axis=-1), 2.0 * q

    system = SimpleMechanicalSystem(np.diag([1.0, 2.0]), potential_and_gradient=both)
    q, p = np.array([0.5, -1.0]), np.array([2.0, 1.0])
    assert system.potential(q) == 1.25 and len(calls) == 1
    assert np.array_equal(system.potential_gradient(q), [1.0, -2.0])
    H = system.hamiltonian_field()
    gq, gp = H.grad(q, p)
    assert H.value(q, p) == 2.25 + 1.25
    assert np.array_equal(gq, [1.0, -2.0]) and np.array_equal(gp, [2.0, 0.5])
    # RK4 reads one kernel call per node and stage, then H on blocks of
    # 128 stored nodes
    calls.clear()
    m = 200
    integrate(H, 0.0, PhasePoint(q, p), m * 1e-3, 1e-3)
    assert calls == [(2,)] * (4 * m + 1) + [(128, 2), (m + 1 - 128, 2)]


def test_mechanical_system_needs_a_potential():
    from scalesym import SimpleMechanicalSystem

    # one kernel, potential_and_gradient; the separate callables are gone
    with pytest.raises(TypeError, match="potential_and_gradient"):
        SimpleMechanicalSystem(np.eye(2))
    with pytest.raises(TypeError, match="potential"):
        SimpleMechanicalSystem(np.eye(2), potential=lambda q: float(q @ q),
                               potential_gradient=lambda q: 2.0 * q)


def test_xi_squared_rejects_zero_inertia(two_body):
    _, system, _, _ = two_body
    with pytest.raises(ValueError, match="inertia"):
        xi_squared_from_config(system, np.zeros(6))


def test_residual_scaling_covariance(triangle):
    # residual(lambda q, xi') = lambda^{alpha-1} residual(q, xi) for
    # xi'^2 = lambda^{alpha-2} xi^2, alpha = -1
    _, system, action, q = triangle
    rng = np.random.default_rng(13)
    q_probe = q + rng.uniform(-0.2, 0.2, size=6)
    for lam in (0.5, 2.0):
        xi = 1.3
        xi_prime = math.sqrt(lam ** -3) * xi
        base = central_config_residual(system, action, xi, q_probe)
        scaled = central_config_residual(system, action, xi_prime, lam * q_probe)
        assert np.max(np.abs(scaled - lam ** -2 * base)) < 1e-8


# --- solver -------------------------------------------------------------------

def test_solver_recovers_triangle(triangle):
    _, system, action, q = triangle
    rng = np.random.default_rng(3)
    q0 = q * (1.0 + rng.uniform(-0.05, 0.05, size=6))
    result = solve_central_configuration(system, action, q0, inertia_target=1.0)
    assert result.certified
    assert result.iterations <= 30
    pos = result.q.reshape(3, 2)
    dists = [np.linalg.norm(pos[i] - pos[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert max(dists) - min(dists) < 1e-8
    assert result.xi ** 2 == pytest.approx(6.0, abs=1e-8)
    # center of mass pinned at the origin
    assert np.abs(pos.sum(axis=0)).max() < 1e-9


def test_solver_certified_output_links_to_homothetic_orbit(triangle):
    # a certified equilibrium must actually follow its group orbit in time
    spec, system, action, q = triangle
    rng = np.random.default_rng(4)
    q0 = q * (1.0 + rng.uniform(-0.05, 0.05, size=6))
    result = solve_central_configuration(system, action, q0, inertia_target=1.0)
    report = verify_homothetic_orbit(system.hamiltonian_field(), action, result,
                                     1.0, 1e-3)
    assert report.homothetic_deviation < 1e-5


def test_solver_argmin_consistency(triangle):
    # at the solution, grad U_xi restricted to the constraint manifold vanishes
    _, system, action, q = triangle
    result = solve_central_configuration(system, action, q, inertia_target=1.0)
    grad = fd_gradient(
        lambda x: augmented_potential(system, action, result.xi, x), result.q)
    normals = [locked_inertia_gradient(system, action, result.q)]
    for comp in range(2):
        row = np.zeros(6)
        row[comp::2] = system.masses
        normals.append(row)
    basis = np.linalg.qr(np.column_stack(normals))[0]
    tangential = grad - basis @ (basis.T @ grad)
    assert np.linalg.norm(tangential) <= 10.0 * result.tol


def test_solver_collinear_equal_masses():
    system = nbody_system(NBodySpec((1.0, 1.0, 1.0), dim=1))
    action = ScalingAction.uniform_dilation(3, 0.5, -1.0)
    result = solve_central_configuration(
        system, action, np.array([-1.1, 0.05, 1.0]), inertia_target=2.0)
    assert result.certified
    assert np.sort(result.q) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
    assert result.xi ** 2 == pytest.approx(2.5, abs=1e-9)


def test_solver_collinear_matches_euler_oracle():
    masses = (1.0, 1.0, 2.0)
    system = nbody_system(NBodySpec(masses, dim=1))
    action = ScalingAction.uniform_dilation(3, 0.5, -1.0)
    result = solve_central_configuration(system, action,
                                         np.array([-1.1, 0.05, 1.0]))
    ratio = (result.q[1] - result.q[0]) / (result.q[2] - result.q[0])
    assert ratio == pytest.approx(euler_collinear_oracle(masses), abs=1e-8)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-10])
def test_a_tolerance_nothing_can_be_judged_against_is_rejected(triangle, tol):
    # inf would certify the start unsolved, nan would never certify
    _, system, action, q = triangle
    with pytest.raises(SchemaError, match="tol"):
        solve_central_configuration(system, action, q, tol=tol)
    with pytest.raises(SchemaError, match="tol"):
        certify_relative_equilibrium(system, action, q, 2.0, tol=tol)


def test_a_negative_iteration_budget_is_rejected(triangle):
    _, system, action, q = triangle
    with pytest.raises(SchemaError, match="max_iter"):
        solve_central_configuration(system, action, q, max_iter=-1)


def test_solver_keywords_of_removed_modes_are_unknown(triangle):
    _, system, action, q = triangle
    for keyword in ({"verify_symmetry": False}, {"fix_xi": 1.0}):
        with pytest.raises(TypeError):
            solve_central_configuration(system, action, q, **keyword)


def test_solver_reports_non_convergence(triangle):
    _, system, action, q = triangle
    rng = np.random.default_rng(5)
    q0 = q * (1.0 + rng.uniform(-0.05, 0.05, size=6))
    with pytest.raises(SolverDidNotConverge) as excinfo:
        solve_central_configuration(system, action, q0, inertia_target=1.0,
                                    max_iter=1)
    assert "residual" in excinfo.value.diagnostics


def test_certify_relative_equilibrium_invariants(two_body):
    _, system, action, q = two_body
    re = certify_relative_equilibrium(system, action, q, 2.0)
    assert re.certified
    assert re.residual_full <= re.tol
    # p is the Legendre transform of the generator, exactly as constructed
    assert re.p == pytest.approx(momentum_from_config(system, action, re.xi, re.q))
