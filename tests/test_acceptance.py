"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
configuration.
"""

import math

import numpy as np

from scalesym import (
    NBodySpec,
    PhasePoint,
    ScalarField,
    ScalingAction,
    central_config_residual,
    certify_relative_equilibrium,
    damped_oscillator,
    euler_collinear_oracle,
    flow_jacobian,
    generator_phase,
    integrate,
    lagrange_triangle,
    momentum_field,
    momentum_from_config,
    nbody_system,
    noether_series,
    omega_matrix,
    relative_equilibrium_residual,
    solve_central_configuration,
    verify_scaling_symmetry,
    xi_squared_from_config,
)
from scalesym.phase import _conformal_field
from scalesym.systems import _nbody_probe

from conftest import kepler_action, quadratic_action


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_lagrange_fixture():
    action = kepler_action(6)
    system = nbody_system(NBodySpec((1.0, 1.0, 1.0), dim=2))
    q = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    res_unit = np.max(np.abs(central_config_residual(system, action,
                                                     math.sqrt(6.0), q)))
    xi2_unit = xi_squared_from_config(system, q)

    masses = (1.0, 2.0, 3.0)
    system123 = nbody_system(NBodySpec(masses, dim=2))
    q123 = lagrange_triangle(masses, 1.0)
    xi2_123 = xi_squared_from_config(system123, q123)
    res_123 = np.max(np.abs(central_config_residual(system123, action,
                                                    math.sqrt(xi2_123), q123)))
    ok = res_unit <= 1e-12 and abs(xi2_unit - 6.0) <= 1e-12 and res_123 <= 1e-12
    _report(1, "lagrange-fixture", ok,
            f"residual={res_unit:.2e}, xi^2={xi2_unit:.15g}, "
            f"unequal-mass residual={res_123:.2e}")


def test_criterion_02_two_body_fixture():
    action = kepler_action(6)
    system = nbody_system(NBodySpec((1.0, 1.0), dim=3))
    q = np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])
    p = 2.0 * system.mass_matrix @ q
    res = np.max(np.abs(relative_equilibrium_residual(
        system.hamiltonian_field(), action, 2.0, PhasePoint(q, p))))
    xi2 = xi_squared_from_config(system, q)
    ok = res <= 1e-12 and abs(xi2 - 4.0) <= 1e-12
    _report(2, "two-body-fixture", ok, f"residual={res:.2e}, xi^2={xi2:.15g}")


def test_criterion_03_solver_convergence():
    action = kepler_action(6)
    system = nbody_system(NBodySpec((1.0, 1.0, 1.0), dim=2))
    q = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    rng = np.random.default_rng(2025)
    q0 = q * (1.0 + rng.uniform(-0.05, 0.05, size=6))
    result = solve_central_configuration(system, action, q0, inertia_target=1.0,
                                         tol=1e-10)
    pos = result.q.reshape(3, 2)
    dists = [np.linalg.norm(pos[i] - pos[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    spread = max(dists) - min(dists)
    ok = (result.certified and result.iterations <= 30
          and spread <= 1e-8 and abs(result.xi ** 2 - 6.0) <= 1e-8)
    _report(3, "solver-convergence", ok,
            f"iterations={result.iterations}, distance spread={spread:.2e}, "
            f"xi^2-6={result.xi ** 2 - 6.0:.2e}")


def test_criterion_04_euler_cross_validation():
    masses = (1.0, 1.0, 2.0)
    oracle = euler_collinear_oracle(masses)
    system = nbody_system(NBodySpec(masses, dim=1))
    action = ScalingAction.uniform_dilation(3, 0.5, -1.0)
    result = solve_central_configuration(system, action,
                                         np.array([-1.1, 0.05, 1.0]), tol=1e-12)
    ratio = (result.q[1] - result.q[0]) / (result.q[2] - result.q[0])
    ok = abs(ratio - oracle) <= 1e-8
    _report(4, "euler-cross-validation", ok,
            f"lm={ratio:.12f}, bisection={oracle:.12f}, diff={abs(ratio - oracle):.2e}")


def test_criterion_05_homothetic_orbit_law():
    spec = NBodySpec((1.0, 1.0), dim=3)
    system = nbody_system(spec)
    action = kepler_action(6)
    q_e = np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])
    p_e = momentum_from_config(system, action, 2.0, q_e)
    traj = integrate(system.hamiltonian_field(), 0.0, PhasePoint(q_e, p_e),
                     1.0, 1e-4)
    eta = (3.0 * traj.times + 1.0) ** (2.0 / 3.0)
    worst = 0.0
    for k in range(len(traj)):
        ref = np.concatenate((eta[k] * q_e, eta[k] ** -0.5 * p_e))
        num = traj.state(k).flat()
        worst = max(worst, np.linalg.norm(num - ref) / np.linalg.norm(ref))
    ok = worst <= 1e-6
    _report(5, "homothetic-orbit-law", ok, f"max relative deviation={worst:.2e}")


def test_criterion_06_generalized_noether():
    spec = NBodySpec((1.0, 1.0, 1.0), dim=2)
    system = nbody_system(spec)
    action = kepler_action(6)
    q = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    xi = math.sqrt(xi_squared_from_config(system, q))
    rot = q.reshape(3, 2) @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = momentum_from_config(system, action, xi, q) + 0.3 * rot.ravel()
    traj = integrate(system.hamiltonian_field(), 0.0, PhasePoint(q, p),
                     1.0, 2e-4, action=action)
    # F = J - H t - (1/2) int 2K dt for b = -1, c = 1/2
    series = noether_series(action, traj)
    drift = series.drift / max(1.0, abs(series.values[0]))
    dJ = np.gradient(traj.momentum, traj.times)
    rate_defect = float(np.max(np.abs(dJ[1:-1] - (traj.energy + traj.kinetic)[1:-1])))
    ok = drift <= 1e-6 and rate_defect <= 1e-5
    _report(6, "generalized-noether", ok,
            f"relative drift={drift:.2e}, dJ/dt-(H+K)={rate_defect:.2e}")


def test_criterion_07_conformal_flow_certification():
    damped = damped_oscillator(0.1)
    A = flow_jacobian(damped.field, damped.c, PhasePoint([1.0], [0.0]), 1.0, 1e-3)
    omega = omega_matrix(1)
    conformal = np.max(np.abs(A.T @ omega @ A - math.exp(-0.1) * omega))
    volume = abs(np.linalg.det(A) - math.exp(-0.1))

    osc = ScalarField(value=lambda q, p: 0.5 * np.sum(p * p + q * q, axis=-1),
                      grad=lambda q, p: (q.copy(), p.copy()))
    A0 = flow_jacobian(osc, 0.0, PhasePoint([0.8], [0.1]), 1.0, 1e-3)
    volume0 = abs(np.linalg.det(A0) - 1.0)
    ok = conformal <= 1e-5 and volume <= 1e-5 and volume0 <= 1e-6
    _report(7, "conformal-flow-certification", ok,
            f"conformal defect={conformal:.2e}, volume defect={volume:.2e}, "
            f"hamiltonian det defect={volume0:.2e}")


def test_criterion_08_momentum_map_identity():
    rng = np.random.default_rng(8)
    action = kepler_action(3)
    worst_uniform = 0.0
    for _ in range(10):
        z = PhasePoint(rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=3))
        xi = float(rng.uniform(0.2, 2.0))
        xv = _conformal_field(momentum_field(action, xi), xi * 0.5, z.flat())
        gen = np.concatenate(generator_phase(action, xi, z.q, z.p))
        worst_uniform = max(worst_uniform, np.max(np.abs(xv - gen)))

    custom = quadratic_action()
    worst_custom = 0.0
    for _ in range(10):
        z = PhasePoint(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        fd_field = ScalarField.from_value(momentum_field(custom, 1.0).value)
        xv = _conformal_field(fd_field, custom.c, z.flat())
        gen = np.concatenate(generator_phase(custom, 1.0, z.q, z.p))
        worst_custom = max(worst_custom, np.max(np.abs(xv - gen)))
    ok = worst_uniform == 0.0 and worst_custom <= 1e-8
    _report(8, "momentum-map-identity", ok,
            f"uniform residual={worst_uniform:.1e}, custom FD residual={worst_custom:.2e}")


def test_criterion_09_scaling_symmetry_verifier():
    spec = NBodySpec((1.0, 1.0, 1.0), dim=3)
    system = nbody_system(spec)
    H = system.hamiltonian_field()
    probe = _nbody_probe(spec)
    good = verify_scaling_symmetry(kepler_action(9), H, samples=32, seed=42,
                                   probe=probe)
    mutated = verify_scaling_symmetry(ScalingAction.uniform_dilation(9, 1.0, -1.0),
                                      H, samples=32, seed=42, probe=probe)
    ok = (good.passed and good.max_residual <= 1e-6
          and not mutated.passed
          and mutated.check("invariance").max_residual > 0.1)
    _report(9, "scaling-symmetry-verifier", ok,
            f"good max residual={good.max_residual:.2e}, "
            f"mutated invariance residual={mutated.check('invariance').max_residual:.2e}")


def test_criterion_10_friction_example():
    damped = damped_oscillator(0.1)
    gamma, omega = 0.05, math.sqrt(1.0 - 0.05 ** 2)

    def run(dt):
        traj = integrate(damped.field, damped.c, PhasePoint([1.0], [0.0]), 10.0, dt)
        q_exact = np.exp(-gamma * traj.times) * (
            np.cos(omega * traj.times) + (gamma / omega) * np.sin(omega * traj.times))
        p_exact = -(1.0 / omega) * np.exp(-gamma * traj.times) * np.sin(omega * traj.times)
        sup = max(np.max(np.abs(traj.qs[:, 0] - q_exact)),
                  np.max(np.abs(traj.ps[:, 0] - p_exact)))
        final = math.hypot(traj.qs[-1, 0] - q_exact[-1], traj.ps[-1, 0] - p_exact[-1])
        return sup, final

    sup_err, final_coarse = run(1e-3)
    _, final_fine = run(5e-4)
    ratio = final_coarse / final_fine
    ok = sup_err <= 1e-6 and 12.0 <= ratio <= 20.0
    _report(10, "friction-example", ok,
            f"error at dt=1e-3 is {sup_err:.2e}, halving ratio={ratio:.1f}")


def test_criterion_11_scaling_covariance():
    action = kepler_action(6)
    system = nbody_system(NBodySpec((1.0, 1.0, 1.0), dim=2))
    q = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    xi2_scaled = xi_squared_from_config(system, 2.0 * q)
    res = np.max(np.abs(central_config_residual(system, action,
                                                math.sqrt(xi2_scaled), 2.0 * q)))
    ok = abs(xi2_scaled - 0.75) <= 1e-12 and res <= 1e-10
    _report(11, "scaling-covariance", ok,
            f"xi^2={xi2_scaled:.15g}, residual at 2q={res:.2e}")
