import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scalesym import (
    CollisionDetected,
    ConformalSystem,
    NBodySpec,
    PhasePoint,
    SchemaError,
    central_config_residual,
    damped_oscillator,
    euler_collinear_oracle,
    fd_gradient,
    integrate,
    lagrange_triangle,
    make_system,
    min_pairwise_distance,
    nbody_potential_and_gradient,
    nbody_system,
    solve_central_configuration,
    verify_scaling_symmetry,
    xi_squared_from_config,
)

from conftest import kepler_action


# --- n-body potential -------------------------------------------------------

def test_two_body_potential_hand_values():
    spec = NBodySpec((1.0, 1.0), dim=3)
    q = np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])
    value, grad = nbody_potential_and_gradient(spec, q)
    assert value == pytest.approx(-1.0)
    assert grad[:3] == pytest.approx([1.0, 0.0, 0.0])


def test_triangle_potential_hand_values():
    spec = NBodySpec((1.0, 1.0, 1.0), dim=2)
    q = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    value, grad = nbody_potential_and_gradient(spec, q)
    assert value == pytest.approx(-3.0)
    assert grad == pytest.approx(3.0 * q, abs=1e-12)


def test_nbody_gradient_matches_fd():
    spec = NBodySpec((1.0, 2.0, 0.7), dim=3)
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 20:
        q = rng.uniform(-1.0, 1.0, size=spec.n)
        if min_pairwise_distance(spec, q) < 0.4:
            continue
        _, grad = nbody_potential_and_gradient(spec, q)
        fd = fd_gradient(lambda x: nbody_potential_and_gradient(spec, x)[0], q)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(grad - fd)) / scale < 1e-6
        checked += 1


def test_nbody_gradient_translation_invariant():
    spec = NBodySpec((1.0, 2.0, 3.0), dim=2)
    rng = np.random.default_rng(15)
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, size=spec.n)
        if min_pairwise_distance(spec, q) < 0.3:
            continue
        _, grad = nbody_potential_and_gradient(spec, q)
        sums = grad.reshape(spec.bodies, spec.dim).sum(axis=0)
        assert np.max(np.abs(sums)) < 1e-12


def test_nbody_homogeneity_euler_identity():
    # q . grad U = alpha U with alpha = -1
    spec = NBodySpec((1.0, 1.0, 2.0), dim=3)
    rng = np.random.default_rng(16)
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, size=spec.n)
        if min_pairwise_distance(spec, q) < 0.3:
            continue
        value, grad = nbody_potential_and_gradient(spec, q)
        assert q @ grad == pytest.approx(-value, abs=1e-10)


def test_nbody_collision_threshold():
    spec = NBodySpec((1.0, 1.0), dim=2)
    with pytest.raises(CollisionDetected):
        nbody_potential_and_gradient(spec, np.array([0.0, 0.0, 1e-8, 0.0]))


def test_collision_guard_stops_freefall():
    # two bodies released at rest collapse within t < 1
    spec = NBodySpec((1.0, 1.0), dim=3)
    system = nbody_system(spec, collision_threshold=1e-2)
    z0 = PhasePoint([0.5, 0, 0, -0.5, 0, 0], np.zeros(6))
    with pytest.raises(CollisionDetected):
        integrate(system.hamiltonian_field(), 0.0, z0, 1.0, 1e-4)


_masses = st.floats(0.1, 5.0)


@st.composite
def _nbody_configurations(draw):
    bodies, dim = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    spec = NBodySpec(tuple(draw(st.lists(_masses, min_size=bodies,
                                         max_size=bodies))), dim=dim)
    q = draw(arrays(float, spec.n, elements=st.floats(-2.0, 2.0)))
    return spec, q


@st.composite
def _separated_nbody_configurations(draw):
    # body k sits within 0.3 of (k, 0, ...), so separations are at least 0.4
    spec, jitter = draw(_nbody_configurations())
    lattice = np.zeros((spec.bodies, spec.dim))
    lattice[:, 0] = np.arange(spec.bodies)
    return spec, lattice.ravel() + 0.15 * jitter


def _brute_force_min_distance(spec, q):
    pos = q.reshape(spec.bodies, spec.dim)
    return min(float(np.sqrt(((pos[i] - pos[j]) ** 2).sum()))
               for i in range(spec.bodies) for j in range(i + 1, spec.bodies))


@settings(derandomize=True, database=None, deadline=None)
@given(_nbody_configurations())
def test_kernel_collision_check_matches_brute_force_separation(case):
    spec, q = case
    d = _brute_force_min_distance(spec, q)
    assert min_pairwise_distance(spec, q) == d
    for threshold in (d, d / 2):
        if d <= threshold:
            with pytest.raises(CollisionDetected):
                nbody_potential_and_gradient(spec, q,
                                             collision_threshold=threshold)
        else:
            nbody_potential_and_gradient(spec, q, collision_threshold=threshold)


@settings(derandomize=True, database=None, deadline=None)
@given(_separated_nbody_configurations())
def test_kernel_gradient_matches_fd_on_separated_configurations(case):
    spec, q = case
    _, grad = nbody_potential_and_gradient(spec, q)
    fd = fd_gradient(lambda x: nbody_potential_and_gradient(spec, x)[0], q)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(grad - fd)) / scale < 1e-6


# --- make_system --------------------------------------------------------------

def test_make_system_nbody_gets_kepler_exponents():
    built = make_system({"type": "nbody", "masses": [1, 1, 1], "dim": 3})
    assert built.action.c == pytest.approx(0.5)
    assert built.action.b == pytest.approx(-1.0)
    assert built.verify().passed


def test_make_system_degree_minus_two_is_symplectic():
    built = make_system({"type": "homogeneous", "alpha": -2, "n": 2})
    assert built.action.c == pytest.approx(0.0)
    assert built.action.b == pytest.approx(-2.0)
    assert built.verify().passed


def test_make_system_damped_oscillator():
    built = make_system({"type": "damped-oscillator", "b": 0.1})
    assert isinstance(built.system, ConformalSystem)
    assert built.system.c == pytest.approx(-0.1)
    assert built.action is None and built.verify() is None


def test_make_system_reports_wrong_exponent_without_raising():
    built = make_system({"type": "nbody", "masses": [1, 1], "dim": 2,
                         "action": {"kind": "dilation", "c": 1.0, "b": -1.0}})
    assert not built.verify().passed
    assert built.verify().check("invariance").max_residual > 0.1


@pytest.mark.parametrize("bad", [
    {},                                              # no type
    {"type": "unknown"},
    {"type": "nbody"},                               # no masses
    {"type": "nbody", "masses": [1, -1]},
    {"type": "damped-oscillator"},                   # no friction
    {"type": "homogeneous", "alpha": -1},            # no n
    {"type": "nbody", "masses": [1, 1], "dim": 2,
     "action": {"kind": "dilation", "weights": [1, 2, 3], "c": 0.5}},
])
def test_make_system_schema_errors(bad):
    with pytest.raises(SchemaError):
        make_system(bad)


@pytest.mark.parametrize("spec, unread", [
    # a misspelled key would leave the collision threshold at 1e-6
    ({"type": "nbody", "masses": [1, 1], "dim": 2, "colision_threshold": 0.5},
     ["'colision_threshold'"]),
    ({"type": "damped-oscillator", "b": 0.1, "action": {"c": 1.0}}, ["'action'"]),
    ({"type": "homogeneous", "alpha": -1, "n": 2, "potential": "q @ q",
      "gradient": "2 q"}, ["'potential'", "'gradient'"]),
    ({"type": "anisotropic-kepler", "masses": [1, 1]}, ["'masses'"]),
])
def test_make_system_names_every_key_its_type_does_not_read(spec, unread):
    with pytest.raises(SchemaError, match="does not read") as excinfo:
        make_system(spec)
    assert all(key in str(excinfo.value) for key in unread)
    assert make_system({k: v for k, v in spec.items()
                        if repr(k) not in unread}).system is not None


@pytest.mark.parametrize("alpha", [-1.5, -1.0, 1.0, 3.0])
def test_make_system_derives_c_from_kinetic_weight_two(alpha):
    # a constant metric, however coupled, scales by g^2 under the uniform
    # dilation, so c = (2 + alpha) / 2 and the derived pair certifies
    built = make_system({"type": "homogeneous", "alpha": alpha, "n": 3,
                         "mass_matrix": [[2, .3, 0], [.3, 1, .1], [0, .1, 1.5]]})
    assert built.action.c == (2.0 + alpha) / 2.0
    assert built.action.b == alpha
    assert built.verify().passed


# --- anisotropic Kepler ---------------------------------------------------------

def test_anisotropic_kepler_is_a_scaling_symmetry():
    built = make_system({"type": "anisotropic-kepler", "mu": 2.0})
    assert built.action.c == pytest.approx(0.5)
    assert built.verify().passed


def test_anisotropic_kepler_axis_central_configuration():
    built = make_system({"type": "anisotropic-kepler", "mu": 2.0})
    system, action = built.system, built.action
    result = solve_central_configuration(system, action, np.array([1.0, 0.05]))
    assert result.certified
    # converges onto the strong axis; same residual equation as n-body
    assert abs(result.q[1]) < 1e-9
    res = central_config_residual(system, action, result.xi, result.q)
    assert np.max(np.abs(res)) < 1e-10


# --- oracles -----------------------------------------------------------------

def test_euler_oracle_symmetric_masses():
    assert euler_collinear_oracle((1.0, 1.0, 1.0)) == pytest.approx(0.5, abs=1e-9)
    assert euler_collinear_oracle((1.0, 2.0, 1.0)) == pytest.approx(0.5, abs=1e-9)


def test_lagrange_triangle_unit_masses(triangle):
    _, system, action, q = triangle
    assert xi_squared_from_config(system, q) == pytest.approx(6.0)
    res = central_config_residual(system, action, math.sqrt(6.0), q)
    assert np.max(np.abs(res)) < 1e-12


def test_lagrange_triangle_any_masses():
    # the equilateral triangle is a central configuration for every mass triple
    masses = (1.0, 2.0, 3.0)
    system = nbody_system(NBodySpec(masses, dim=2))
    q = lagrange_triangle(masses, 1.0)
    assert np.abs(q.reshape(3, 2).T @ np.array(masses)).max() < 1e-14
    xi2 = xi_squared_from_config(system, q)
    res = central_config_residual(system, kepler_action(6), math.sqrt(xi2), q)
    assert np.max(np.abs(res)) < 1e-12


def test_lagrange_triangle_scaled_side():
    system = nbody_system(NBodySpec((1.0, 1.0, 1.0), dim=2))
    q = lagrange_triangle([1.0, 1.0, 1.0], 2.0)
    assert xi_squared_from_config(system, q) == pytest.approx(0.75)


# --- damped oscillator benchmark ----------------------------------------------

def test_damped_oscillator_definition():
    system = damped_oscillator(0.25)
    assert system.c == -0.25
    z = PhasePoint([1.0], [2.0])
    assert system.field.value(z.q, z.p) == pytest.approx(2.5)
    gq, gp = system.field.grad(z.q, z.p)
    assert gq == pytest.approx([1.0]) and gp == pytest.approx([2.0])


def test_shipped_systems_pass_verification():
    # every shipped mechanical system verifies
    for spec in ({"type": "nbody", "masses": [1, 1], "dim": 2},
                 {"type": "nbody", "masses": [1.0, 2.0, 3.0], "dim": 3},
                 {"type": "homogeneous", "alpha": -1, "n": 3},
                 {"type": "anisotropic-kepler", "mu": 3.0}):
        built = make_system(spec)
        assert built.verify().passed, spec
