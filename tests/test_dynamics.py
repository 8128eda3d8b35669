import dataclasses
import math

import numpy as np
import pytest

from scalesym import (
    FD_STEP,
    BlowupWindow,
    CollisionDetected,
    DimensionMismatch,
    NBodySpec,
    NonFiniteValue,
    PhasePoint,
    ScalarField,
    ScalingAction,
    UncertifiedInput,
    anisotropic_kepler_system,
    certify_relative_equilibrium,
    damped_oscillator,
    fd_jacobian,
    flow_jacobian,
    homothetic_factor,
    integrate,
    lagrange_triangle,
    momentum_from_config,
    nbody_system,
    noether_series,
    omega_matrix,
    power_law_system,
    verify_conformal_flow,
    verify_homothetic_orbit,
    xi_squared_from_config,
)

from conftest import kepler_action


FREE = ScalarField(value=lambda q, p: 0.5 * float(p @ p),
                   grad=lambda q, p: (np.zeros_like(q), p.copy()))

GAMMA = 0.05
OMEGA = math.sqrt(1.0 - GAMMA ** 2)


def damped_exact(t):
    """Closed-form under-damped solution of q'' = -0.1 q' - q from (1, 0)."""
    t = np.asarray(t, dtype=float)
    q = np.exp(-GAMMA * t) * (np.cos(OMEGA * t) + (GAMMA / OMEGA) * np.sin(OMEGA * t))
    p = -(1.0 / OMEGA) * np.exp(-GAMMA * t) * np.sin(OMEGA * t)
    return q, p


def damped_flow_matrix(t):
    """e^{At} for A = [[0, 1], [-1, -0.1]] via the 2x2 spectral formula."""
    A = np.array([[0.0, 1.0], [-1.0, -0.1]])
    return np.exp(-GAMMA * t) * (math.cos(OMEGA * t) * np.eye(2)
                                 + math.sin(OMEGA * t) / OMEGA * (A + GAMMA * np.eye(2)))


def test_free_particle_final_state():
    traj = integrate(FREE, 0.0, PhasePoint([0.0], [1.0]), 1.0, 1e-2)
    assert traj.final_state.q == pytest.approx([1.0], abs=1e-12)
    assert traj.final_state.p == pytest.approx([1.0], abs=1e-12)


def test_damped_oscillator_matches_closed_form():
    system = damped_oscillator(0.1)
    traj = integrate(system.field, system.c, PhasePoint([1.0], [0.0]), 10.0, 1e-3)
    q_exact, p_exact = damped_exact(traj.times)
    assert np.max(np.abs(traj.qs[:, 0] - q_exact)) < 1e-6
    assert np.max(np.abs(traj.ps[:, 0] - p_exact)) < 1e-6


def test_integrator_is_fourth_order():
    # halving dt divides the final-state error by ~16
    system = damped_oscillator(0.1)

    def final_error(dt):
        traj = integrate(system.field, system.c, PhasePoint([1.0], [0.0]), 10.0, dt)
        q_exact, p_exact = damped_exact(10.0)
        return math.hypot(traj.final_state.q[0] - q_exact,
                          traj.final_state.p[0] - p_exact)

    ratio = final_error(0.02) / final_error(0.01)
    assert 12.0 < ratio < 20.0


def test_two_body_homothetic_expansion():
    # q(t) = (3t + 1)^{2/3} q_e along the expanding two-body solution
    spec = NBodySpec((1.0, 1.0), dim=3)
    system = nbody_system(spec)
    action = kepler_action(6)
    q_e = np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])
    p_e = momentum_from_config(system, action, 2.0, q_e)
    traj = integrate(system.hamiltonian_field(), 0.0, PhasePoint(q_e, p_e),
                     1.0, 1e-3)
    eta = (3.0 * traj.times + 1.0) ** (2.0 / 3.0)
    assert np.max(np.abs(traj.qs - eta[:, None] * q_e)) < 1e-6


def test_integrate_rejects_non_multiple_window():
    with pytest.raises(ValueError):
        integrate(FREE, 0.0, PhasePoint([0.0], [1.0]), 1.05, 1e-1)


def test_flow_jacobian_at_time_zero_is_identity():
    A = flow_jacobian(FREE, 0.0, PhasePoint([0.3], [0.7]), 0.0, 1e-2)
    assert A == pytest.approx(np.eye(2), abs=1e-12)


def test_flow_jacobian_free_particle():
    t = 0.8
    A = flow_jacobian(FREE, 0.0, PhasePoint([0.3], [0.7]), t, 1e-2)
    assert A == pytest.approx(np.array([[1.0, t], [0.0, 1.0]]), abs=1e-9)


def test_flow_jacobian_damped_oscillator_matrix_exponential():
    system = damped_oscillator(0.1)
    A = flow_jacobian(system.field, system.c, PhasePoint([1.0], [0.0]), 1.0, 1e-3)
    assert A == pytest.approx(damped_flow_matrix(1.0), abs=1e-6)


def test_conformal_flow_hamiltonian_case_is_symplectic():
    osc = ScalarField(value=lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q),
                      grad=lambda q, p: (q.copy(), p.copy()))
    traj = integrate(osc, 0.0, PhasePoint([0.7], [-0.2]), 1.0, 1e-3)
    report = verify_conformal_flow(osc, 0.0, traj, 1.0, 1e-3)
    assert report.volume_defect < 1e-6
    assert report.conformal_defect < 1e-6


def test_conformal_flow_damped_oscillator():
    system = damped_oscillator(0.1)
    traj = integrate(system.field, system.c, PhasePoint([1.0], [0.0]), 1.0, 1e-3)
    report = verify_conformal_flow(system.field, system.c, traj, 1.0, 1e-3)
    assert report.volume_defect < 1e-5          # det A = e^{-0.1}
    assert report.conformal_defect < 1e-5       # A^T Omega A = e^{-0.1} Omega
    assert report.energy_rate_defect < 1e-5     # dF/dt = c p dF/dp


def test_conformal_flow_rejects_a_trajectory_of_another_window():
    system = damped_oscillator(0.1)
    traj = integrate(system.field, system.c, PhasePoint([1.0], [0.0]), 0.1, 1e-3)
    with pytest.raises(DimensionMismatch):
        verify_conformal_flow(system.field, system.c, traj, 0.2, 1e-3)


def test_conformal_factor_against_omega_matrix():
    system = damped_oscillator(0.1)
    A = flow_jacobian(system.field, system.c, PhasePoint([0.4], [0.9]), 1.0, 1e-3)
    omega = omega_matrix(1)
    assert A.T @ omega @ A == pytest.approx(math.exp(-0.1) * omega, abs=1e-6)


def test_conformal_flow_anisotropic_kepler():
    # a nonlinear mechanical flow is symplectic to 1e-5 at t = 1, dt = 1e-3
    from scalesym import anisotropic_kepler_system

    system = anisotropic_kepler_system(2.0)
    z0 = PhasePoint([1.0, 0.4], [0.1, 0.9])
    H = system.hamiltonian_field()
    report = verify_conformal_flow(H, 0.0, integrate(H, 0.0, z0, 1.0, 1e-3), 1.0, 1e-3)
    assert report.conformal_defect < 1e-5
    assert report.volume_defect < 1e-5


# --- generalized Noether ----------------------------------------------------

def _expanding_triangle(twist=0.3):
    spec = NBodySpec((1.0, 1.0, 1.0), dim=2)
    system = nbody_system(spec)
    action = kepler_action(6)
    q = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    xi = math.sqrt(xi_squared_from_config(system, q))
    p = momentum_from_config(system, action, xi, q)
    rot = q.reshape(3, 2) @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    return spec, system, action, PhasePoint(q, p + twist * rot.ravel())


def test_noether_constant_nbody_kepler():
    spec, system, action, z0 = _expanding_triangle()
    traj = integrate(system.hamiltonian_field(), 0.0, z0, 1.0, 5e-4,
                     action=action)
    series = noether_series(action, traj)
    assert series.drift / max(1.0, abs(series.values[0])) < 1e-6
    # pointwise dJ/dt = H + K for b = -1, c = 1/2
    dJ = np.gradient(traj.momentum, traj.times)
    target = traj.energy + traj.kinetic
    assert np.max(np.abs(dJ[1:-1] - target[1:-1])) < 1e-5


def test_noether_degree_minus_two_zero_energy():
    # with b = -2 the momentum rate is 2H, so J is conserved on H = 0
    system = power_law_system(2, -2.0)
    action = ScalingAction.uniform_dilation(2, 0.0, -2.0)
    q0 = np.array([1.0, 0.0])
    u0 = system.potential(q0)
    p_mag = math.sqrt(-2.0 * u0)             # K + U = 0
    z0 = PhasePoint(q0, [0.0, p_mag])
    traj = integrate(system.hamiltonian_field(), 0.0, z0, 1.0, 1e-3, action=action)
    assert abs(traj.energy[0]) < 1e-14
    assert np.max(np.abs(traj.momentum - traj.momentum[0])) < 1e-8
    # and the full Noether combination is conserved off the zero level too
    z1 = PhasePoint(q0, [0.2, 1.5 * p_mag])
    traj1 = integrate(system.hamiltonian_field(), 0.0, z1, 1.0, 1e-3, action=action)
    series = noether_series(action, traj1)
    assert series.drift < 1e-8


def test_noether_rate_harmonic_oscillator_dilation():
    # dJ/dt = -b H + c theta(X_H) = -2H + 4K for c = b = 2
    osc = ScalarField(value=lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q),
                      grad=lambda q, p: (q.copy(), p.copy()))
    action = ScalingAction.uniform_dilation(1, 2.0, 2.0)
    traj = integrate(osc, 0.0, PhasePoint([0.8], [0.3]), 2.0, 1e-3, action=action)
    dJ = np.gradient(traj.momentum, traj.times)
    target = -2.0 * traj.energy + 4.0 * traj.kinetic
    assert np.max(np.abs(dJ[1:-1] - target[1:-1])) < 1e-5


# --- homothetic orbits ------------------------------------------------------

def _two_body_re(xi=2.0):
    spec = NBodySpec((1.0, 1.0), dim=3)
    system = nbody_system(spec)
    action = kepler_action(6)
    q = np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])
    return spec, system, action, certify_relative_equilibrium(system, action, q, xi)


def test_homothetic_factor_kepler():
    action = kepler_action(6)
    t = np.linspace(0.0, 1.0, 5)
    assert homothetic_factor(action, 2.0, t) == pytest.approx((3.0 * t + 1.0) ** (2.0 / 3.0))


def test_homothetic_factor_equal_exponents():
    action = ScalingAction.uniform_dilation(2, 2.0, 2.0)
    assert homothetic_factor(action, 0.5, 2.0) == pytest.approx(math.e)


def test_homothetic_orbit_two_body():
    spec, system, action, re = _two_body_re()
    report = verify_homothetic_orbit(system.hamiltonian_field(), action, re,
                                     1.0, 1e-3)
    assert report.homothetic_deviation < 1e-6


def test_homothetic_orbit_fixed_point():
    # xi = 0 at a critical point of H: eta is identically 1
    system = power_law_system(1, 2.0, k=0.5, name="oscillator")
    action = ScalingAction.uniform_dilation(1, 2.0, 2.0)
    re = certify_relative_equilibrium(system, action, np.array([0.0]), 0.0)
    assert re.certified
    report = verify_homothetic_orbit(system.hamiltonian_field(), action, re, 1.0, 1e-2)
    assert report.homothetic_deviation < 1e-12


def test_homothetic_orbit_detects_perturbation():
    spec, system, action, re = _two_body_re()
    bad = dataclasses.replace(re, p=1.01 * re.p)
    report = verify_homothetic_orbit(system.hamiltonian_field(), action, bad,
                                     1.0, 1e-3)
    assert report.homothetic_deviation > 1e-3


def test_homothetic_orbit_refuses_blowup_window():
    # contracting branch xi < 0 blows up at t* = 1/3 for Kepler exponents
    spec, system, action, re = _two_body_re()
    contracting = dataclasses.replace(re, xi=-2.0, p=-re.p)
    with pytest.raises(BlowupWindow):
        verify_homothetic_orbit(system.hamiltonian_field(), action, contracting,
                                1.0, 1e-3)


def test_homothetic_orbit_requires_certification():
    spec, system, action, re = _two_body_re()
    uncertified = dataclasses.replace(re, certified=False)
    with pytest.raises(UncertifiedInput):
        verify_homothetic_orbit(system.hamiltonian_field(), action, uncertified,
                                0.5, 1e-3)


# --- flat-array inner loops -------------------------------------------------

def _flow_case(name):
    if name == "nbody3":
        _, system, _, z0 = _expanding_triangle()
        return system.hamiltonian_field(), 0.0, z0
    if name == "kepler":
        system = anisotropic_kepler_system(2.0)
        return system.hamiltonian_field(), 0.0, PhasePoint([0.8, -0.3], [0.1, 0.9])
    if name == "nbody10-3d":
        spec = NBodySpec(tuple(np.linspace(0.5, 2.0, 10)), dim=3)
        rng = np.random.default_rng(7)
        lattice = np.stack(np.unravel_index(np.arange(10), (3, 2, 2)), axis=1)
        q = (lattice + rng.uniform(-0.2, 0.2, (10, 3))).ravel()
        return (nbody_system(spec).hamiltonian_field(), 0.0,
                PhasePoint(q, rng.uniform(-0.5, 0.5, 30)))
    if name == "power-law-full-mass":
        M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        system = power_law_system(3, -1.0, mass_matrix=M)
        return (system.hamiltonian_field(), 0.0,
                PhasePoint([0.8, -0.3, 0.5], [0.1, 0.9, -0.2]))
    system = damped_oscillator(0.1)
    return system.field, system.c, PhasePoint.from_flat(system.z0)


@pytest.mark.parametrize("name", ["nbody3", "damped", "kepler", "nbody10-3d",
                                  "power-law-full-mass"])
def test_flow_jacobian_is_fd_of_integrate(name):
    # The probes skip the diagnostics, but their final states are integrate's.
    F, c, z0 = _flow_case(name)

    def flow(y):
        return integrate(F, c, PhasePoint.from_flat(y), 0.1, 1e-2).final_state.flat()

    assert np.array_equal(flow_jacobian(F, c, z0, 0.1, 1e-2),
                          fd_jacobian(flow, z0.flat()))


@pytest.mark.parametrize("name", ["integrate", "integrate-action", "flow_jacobian",
                                  "noether_series", "verify_homothetic_orbit"])
def test_phase_points_do_not_grow_with_steps(phase_point_count, name):
    dt = 1e-3
    _, system, action, z0 = _expanding_triangle()
    H = system.hamiltonian_field()
    _, two_body, kepler, re = _two_body_re()

    def run(t):  # the call whose PhasePoints are counted, on a window t
        if name == "noether_series":
            traj = integrate(H, 0.0, z0, t, dt, action=action)
            return lambda: noether_series(action, traj)
        return {
            "integrate": lambda: integrate(H, 0.0, z0, t, dt),
            "integrate-action": lambda: integrate(H, 0.0, z0, t, dt, action=action),
            "flow_jacobian": lambda: flow_jacobian(H, 0.0, z0, t, dt),
            "verify_homothetic_orbit": lambda: verify_homothetic_orbit(
                two_body.hamiltonian_field(), kepler, re, t, dt),
        }[name]

    assert phase_point_count(run(10 * dt)) == phase_point_count(run(100 * dt))


def test_integrate_overflowing_gradient_raises():
    # dF/dq = exp(800 q) overflows at q = 1; the next node state is not finite.
    field = ScalarField(value=lambda q, p: 0.0,
                        grad=lambda q, p: (np.exp(800.0 * q), p.copy()))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue):
        integrate(field, 0.0, PhasePoint([1.0], [0.0]), 0.1, 1e-2)


def test_flow_jacobian_overflowing_gradient_raises():
    field = ScalarField(value=lambda q, p: 0.0,
                        grad=lambda q, p: (np.exp(800.0 * q), p.copy()))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue):
        flow_jacobian(field, 0.0, PhasePoint([1.0], [0.0]), 0.1, 1e-2)


def test_flow_jacobian_rejects_a_gradient_that_drops_the_stack_axis():
    # Written for one state: np.array([q[0]]) is (1,) for one state but
    # (1, 1) for the (4, 1) probe stack, where it would broadcast silently.
    field = ScalarField(value=lambda q, p: 0.5 * float(q @ q + p @ p),
                        grad=lambda q, p: (np.array([q[0]]), p.copy()))
    z0 = PhasePoint([1.0], [0.0])
    integrate(field, 0.0, z0, 0.1, 1e-2)
    with pytest.raises(DimensionMismatch):
        flow_jacobian(field, 0.0, z0, 0.1, 1e-2)


def test_flow_jacobian_collision_in_one_probe_row_raises():
    # Bodies at -3 and -2 flying apart.  The probe steps are 3 and 2
    # FD_STEP (about), and the threshold sits between the two shortened
    # separations, so only the row q_0 + h_0 starts inside it.
    system = nbody_system(NBodySpec((1.0, 1.0), dim=1),
                          collision_threshold=1.0 - 2.5 * FD_STEP)
    z0 = PhasePoint([-3.0, -2.0], [-0.5, 0.5])
    integrate(system.hamiltonian_field(), 0.0, z0, 0.1, 1e-2)
    with pytest.raises(CollisionDetected):
        flow_jacobian(system.hamiltonian_field(), 0.0, z0, 0.1, 1e-2)


def _counting(field: ScalarField):
    calls = []

    def grad(q, p):
        calls.append(np.shape(q))
        return field.grad(q, p)

    return ScalarField(value=field.value, grad=grad), calls


def test_gradient_calls_per_stack():
    # flow_jacobian: 4 stages per step on the whole (4n, 2n) probe stack;
    # integrate: the same plus the final node, which its diagnostics read.
    F, c, z0 = _flow_case("nbody3")
    m = 10
    counted, calls = _counting(F)
    flow_jacobian(counted, c, z0, m * 1e-2, 1e-2)
    assert calls == [(4 * z0.n, z0.n)] * (4 * m)
    calls.clear()
    integrate(counted, c, z0, m * 1e-2, 1e-2)
    assert calls == [(z0.n,)] * (4 * m + 1)
