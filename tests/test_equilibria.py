import math

import numpy as np
import pytest

from scalesym import (
    NBodySpec,
    PhasePoint,
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
    momentum_from_config,
    nbody_system,
    relative_equilibrium_residual,
    solve_central_configuration,
    verify_homothetic_orbit,
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
    res = relative_equilibrium_residual(system, action, 2.0, z)
    assert np.max(np.abs(res)) < 1e-13


def test_re_residual_detects_momentum_mismatch(two_body):
    _, system, action, q = two_body
    res = relative_equilibrium_residual(system, action, 2.0, PhasePoint(q, np.zeros(6)))
    xi_m_q = 2.0 * system.mass_matrix @ q
    assert np.max(np.abs(res)) > 0.0
    # dq block reduces to grad U = xi M q at the central configuration
    assert np.linalg.norm(res[:6]) == pytest.approx(np.linalg.norm(xi_m_q), rel=1e-10)


def test_re_residual_matches_fd_differential(two_body):
    # residual == FD differential of (H - xi J) plus (c xi) (p, 0) at random z
    _, system, action, _ = two_body
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = random_phase_point(rng, 6)
        if np.linalg.norm(z.q[:3] - z.q[3:]) < 0.4:
            continue
        xi = float(rng.uniform(0.3, 2.0))
        res = relative_equilibrium_residual(system, action, xi, z)
        h_xi = lambda w: augmented_hamiltonian(system, action, xi,
                                               PhasePoint.from_flat(w))
        fd = fd_gradient(h_xi, z.flat())
        fd[:6] += action.c * xi * z.p
        assert np.max(np.abs(res - fd)) < 1e-6


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
        assert augmented_hamiltonian(system, action, xi, z) \
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
