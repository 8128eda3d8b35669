"""The ScalarField stack contract: value and grad on a (B, n) stack equal,
row for row and bit for bit, value and grad on each row alone.

flow_jacobian integrates its probes as one stack and the scaling verifier
reads H on its whole probe stack, and both rely on this, so every
in-package field is swept here over random stacks.  ``integrate`` reads a
trajectory's H by ``value`` on blocks of stored nodes, and each row must
be the float of that node alone; so must the row-by-row momentum map and
lift that the Noether series and the homothetic check apply to whole
trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scalesym import (
    CollisionDetected,
    NBodySpec,
    PhasePoint,
    ScalarField,
    ScalingAction,
    anisotropic_kepler_system,
    damped_oscillator,
    homogeneous_system,
    integrate,
    momentum_field,
    nbody_system,
    power_law_system,
)
from scalesym import make_system, systems, verify_scaling_symmetry
from scalesym.scaling import act_phase, momentum_map

from conftest import quadratic_action

_rows = st.integers(1, 5)
_coordinates = st.floats(-2.0, 2.0)
_nonzero = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)  # rows away from q = 0


def assert_stack_matches_rows(field: ScalarField, Q, P):
    gq, gp = field.grad(Q, P)
    rows = [field.grad(q.copy(), p.copy()) for q, p in zip(Q, P)]
    assert np.array_equal(gq, np.stack([r[0] for r in rows]))
    assert np.array_equal(gp, np.stack([r[1] for r in rows]))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def _stack(draw, n, elements=_coordinates):
    b = draw(_rows)
    return (draw(arrays(float, (b, n), elements=elements)),
            draw(arrays(float, (b, n), elements=_coordinates)))


def assert_values_match_rows(field: ScalarField, Q, P):
    """value on the stack is one value per row, each that of the row
    alone, bit for bit."""
    rows = [field.value(q.copy(), p.copy()) for q, p in zip(Q, P)]
    stacked = field.value(Q, P)
    assert np.shape(stacked) == (len(Q),)
    assert _bits(stacked) == _bits(rows)


@st.composite
def _nbody_stacks(draw, max_bodies=6):
    # body k of each row sits within 0.3 of (k, 0, ...), so separations are >= 0.4
    bodies, dim = draw(st.integers(2, max_bodies)), draw(st.integers(1, 3))
    masses = draw(st.lists(st.floats(0.1, 5.0), min_size=bodies, max_size=bodies))
    spec = NBodySpec(tuple(masses), dim=dim)
    jitter, P = draw(_stack(spec.n))
    lattice = np.zeros((bodies, dim))
    lattice[:, 0] = np.arange(bodies)
    return spec, lattice.ravel() + 0.15 * jitter, P


@settings(derandomize=True, database=None, deadline=None)
@given(_nbody_stacks())
def test_nbody_field_stacks(case):
    spec, Q, P = case
    assert_stack_matches_rows(nbody_system(spec).hamiltonian_field(), Q, P)


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(0.2, 5.0), _stack(2, elements=_nonzero))
def test_anisotropic_kepler_field_stacks(mu, stack):
    assert_stack_matches_rows(anisotropic_kepler_system(mu).hamiltonian_field(),
                              *stack)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 4),
       st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0]) | st.floats(-3.0, 3.0).filter(bool),
       st.floats(-2.0, 2.0))
def test_power_law_field_stacks(data, n, alpha, k):
    Q, P = data.draw(_stack(n, elements=_nonzero))
    assert_stack_matches_rows(power_law_system(n, alpha, k).hamiltonian_field(), Q, P)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.data(), st.integers(2, 4))
def test_homogeneous_field_with_full_mass_matrix_stacks(data, n):
    # Python-API gradient written for one configuration, non-diagonal SPD M
    a = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    system = homogeneous_system(
        lambda q: -1.0 / np.sqrt(q @ q), lambda q: q * (q @ q) ** -1.5, n, -1.0,
        mass_matrix=a @ a.T + n * np.eye(n) + 0.5 * (1 - np.eye(n)))
    assert system._mass_diagonal is None
    Q, P = data.draw(_stack(n, elements=_nonzero))
    assert_stack_matches_rows(system.hamiltonian_field(), Q, P)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.data(), st.integers(1, 4))
def test_homogeneous_system_maps_a_single_state_gradient(data, n):
    # the norm reduces over the whole argument, so this gradient is only
    # right for one configuration; the system applies it row by row
    system = homogeneous_system(lambda q: -1.0 / np.linalg.norm(q),
                                lambda q: q / np.linalg.norm(q) ** 3, n, -1.0)
    Q, P = data.draw(_stack(n, elements=_nonzero))
    assert_stack_matches_rows(system.hamiltonian_field(), Q, P)


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(0.0, 2.0), _stack(1))
def test_damped_oscillator_field_stacks(friction, stack):
    assert_stack_matches_rows(damped_oscillator(friction).field, *stack)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 5), st.floats(-3.0, 3.0))
def test_dilation_momentum_field_stacks(data, n, xi):
    weights = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    action = ScalingAction.dilation(weights, 0.5, -1.0)
    assert_stack_matches_rows(momentum_field(action, xi), *data.draw(_stack(n)))


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(-3.0, 3.0), _stack(2))
def test_custom_action_momentum_field_stacks(xi, stack):
    assert_stack_matches_rows(momentum_field(quadratic_action(), xi), *stack)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_from_value_field_stacks(data, n):
    field = ScalarField.from_value(
        lambda q, p: float(q @ p) + 0.25 * float(q @ q) ** 2 + float(np.sin(p).sum()))
    assert_stack_matches_rows(field, *data.draw(_stack(n)))


# --- integrate: H read on blocks of stored nodes, the same bits -------------

def _integrated_case(name):
    if name == "nbody":
        spec = NBodySpec((1.0, 1.3, 0.8), dim=2)
        return (nbody_system(spec).hamiltonian_field(), 0.0,
                PhasePoint([0.0, 0.0, 1.0, 0.0, 0.5, 0.9],
                           [0.1, -0.2, 0.0, 0.3, -0.2, 0.1]))
    if name == "anisotropic-kepler":
        return (anisotropic_kepler_system(2.0).hamiltonian_field(), 0.0,
                PhasePoint([0.8, -0.3], [0.1, 0.9]))
    if name == "power-law":
        return (power_law_system(3, -1.0).hamiltonian_field(), 0.0,
                PhasePoint([0.8, -0.3, 0.5], [0.1, 0.9, -0.2]))
    system = damped_oscillator(0.1)
    return system.field, system.c, PhasePoint.from_flat(system.z0)


@pytest.mark.parametrize("name", ["nbody", "anisotropic-kepler", "power-law",
                                  "damped-oscillator"])
def test_integrated_energy_is_value_at_each_row(name):
    # 201 rows: integrate reads H on a block of 128 and one of 73
    F, c, z0 = _integrated_case(name)
    traj = integrate(F, c, z0, 0.2, 1e-3)
    assert len(traj) == 201
    alone = [F.value(q.copy(), p.copy()) for q, p in zip(traj.qs, traj.ps)]
    assert traj.energy.tobytes() == _bits(alone)


# --- value: H on a whole stack, the same bits ---------------------------------

@settings(derandomize=True, database=None, deadline=None)
@given(_nbody_stacks(max_bodies=20))
def test_nbody_values_are_each_rows_value(case):
    spec, Q, P = case
    assert_values_match_rows(nbody_system(spec).hamiltonian_field(), Q, P)


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(0.2, 5.0), _stack(2, elements=_nonzero))
def test_anisotropic_kepler_values_are_each_rows_value(mu, stack):
    assert_values_match_rows(anisotropic_kepler_system(mu).hamiltonian_field(), *stack)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 4),
       st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0]) | st.floats(-3.0, 3.0).filter(bool),
       st.floats(-2.0, 2.0))
def test_power_law_values_are_each_rows_value(data, n, alpha, k):
    Q, P = data.draw(_stack(n, elements=_nonzero))
    assert_values_match_rows(power_law_system(n, alpha, k).hamiltonian_field(), Q, P)


def test_nbody_values_of_a_stack_is_one_kernel_call(monkeypatch):
    spec = NBodySpec((1.0, 2.0, 0.5, 1.5), dim=3)
    field = nbody_system(spec).hamiltonian_field()
    rng = np.random.default_rng(3)
    Q = np.arange(spec.n, dtype=float) + rng.uniform(-0.1, 0.1, (8, spec.n))
    calls = []
    kernel = systems.nbody_potential_and_gradient

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(systems, "nbody_potential_and_gradient", counted)
    field.value(Q, rng.uniform(-1.0, 1.0, (8, spec.n)))
    assert calls == [(8, spec.n)]


def test_nbody_values_raise_for_one_colliding_row():
    spec = NBodySpec((1.0, 1.0, 1.0), dim=2)
    field = nbody_system(spec).hamiltonian_field()
    Q = np.tile([0.0, 0.0, 1.0, 0.0, 0.0, 1.0], (4, 1))
    Q[2, 2:4] = 0.0  # body 1 on body 0 in row 2 only
    with pytest.raises(CollisionDetected):
        field.value(Q, np.zeros_like(Q))


def test_a_one_state_field_gets_values_row_by_row():
    # value reduces over its whole argument, so it is right for one state
    # only; from_value maps it over the rows
    field = ScalarField.from_value(lambda q, p: float(q @ q) + float(p.sum()))
    Q, P = np.random.default_rng(5).normal(size=(2, 6, 3))
    assert_values_match_rows(field, Q, P)
    assert field.value(Q.reshape(2, 3, 3), P.reshape(2, 3, 3)).shape == (2, 3)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.data(), st.integers(2, 4))
def test_homogeneous_values_with_full_mass_matrix_are_each_rows_value(data, n):
    a = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    system = homogeneous_system(
        lambda q: -1.0 / np.sqrt(q @ q), lambda q: q * (q @ q) ** -1.5, n, -1.0,
        mass_matrix=a @ a.T + n * np.eye(n) + 0.5 * (1 - np.eye(n)))
    assert system._mass_diagonal is None
    assert_values_match_rows(system.hamiltonian_field(),
                             *data.draw(_stack(n, elements=_nonzero)))


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(0.0, 2.0), st.integers(1, 4), st.data())
def test_damped_oscillator_values_are_each_rows_value(friction, n, data):
    assert_values_match_rows(damped_oscillator(friction).field, *data.draw(_stack(n)))


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 5), st.floats(-3.0, 3.0), st.booleans())
def test_momentum_field_values_are_each_rows_value(data, n, xi, custom):
    if custom:
        action, n = quadratic_action(), 2
    else:
        weights = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
        action = ScalingAction.dilation(weights, 0.5, -1.0)
    assert_values_match_rows(momentum_field(action, xi), *data.draw(_stack(n)))


@pytest.mark.parametrize("custom", [False, True])
def test_momentum_field_with_a_column_of_xi_gives_one_value_per_row(custom):
    # each row's J_xi with that row's xi, as the verifier's stacked xi is
    action = quadratic_action() if custom else ScalingAction.dilation([1.0, -0.5], 0.5, -1.0)
    Q, P = np.random.default_rng(11).uniform(-1.0, 1.0, (2, 3, 2))
    xi = np.array([[1.0], [2.0], [3.0]])
    values = momentum_field(action, xi).value(Q, P)
    assert np.shape(values) == (3,)
    assert _bits(values) == _bits([momentum_field(action, float(x[0])).value(q, p)
                                   for x, q, p in zip(xi, Q, P)])


def test_verifier_reads_h_in_one_kernel_call(monkeypatch):
    # a field rebuilt from H's value and grad keeps H's stacked value, so
    # the verifier reads its 32 probes and 32 lifted probes in one call
    built = make_system({"type": "nbody", "masses": [1.0, 1.3, 0.8], "dim": 2})
    H = built.system.hamiltonian_field()
    expected = built.verify().to_dict()
    calls = []
    kernel = systems.nbody_potential_and_gradient

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(systems, "nbody_potential_and_gradient", counted)
    report = verify_scaling_symmetry(built.action, ScalarField(value=H.value, grad=H.grad),
                                     probe=built.probe)
    assert calls == [(64, 6)]
    assert report.to_dict() == expected


# --- whole trajectories: momentum map and lift, row by row --------------------

@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 30))
def test_dilation_momentum_of_a_stack_is_each_rows(data, n):
    weights = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    action = ScalingAction.dilation(weights, 0.5, -1.0)
    Q, P = data.draw(_stack(n))
    J = momentum_map(action, Q, P)
    assert _bits(J) == _bits([momentum_map(action, q.copy(), p.copy())
                              for q, p in zip(Q, P)])


@settings(derandomize=True, database=None, deadline=None)
@given(_stack(2))
def test_custom_momentum_of_a_stack_is_each_rows(stack):
    action = quadratic_action()
    Q, P = stack
    assert _bits(momentum_map(action, Q, P)) == _bits(
        [momentum_map(action, q.copy(), p.copy()) for q, p in zip(Q, P)])


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.booleans())
def test_lift_by_a_column_of_group_elements_is_each_rows(data, custom):
    # one state lifted by a column of g's, as the homothetic check lifts z_e
    n = 2 if custom else data.draw(st.integers(1, 9))
    if custom:
        action = quadratic_action()
    else:
        weights = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
        action = ScalingAction.dilation(weights, data.draw(st.floats(-2.0, 2.0)), -1.0)
    q, p = (data.draw(arrays(float, n, elements=_coordinates)) for _ in range(2))
    g = data.draw(arrays(float, (data.draw(_rows), 1), elements=st.floats(0.2, 5.0)))
    Q, P = act_phase(action, g, q, p)
    rows = [act_phase(action, float(gk[0]), q, p) for gk in g]
    assert _bits(Q) == _bits([r[0] for r in rows])
    assert _bits(P) == _bits([r[1] for r in rows])
