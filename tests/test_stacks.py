"""The ScalarField stack contract: grad on a (B, n) stack equals, row for
row and bit for bit, grad on each row alone.

flow_jacobian integrates its probes as one stack and relies on this, so
every in-package field is swept here over random stacks.  The fused
``value_and_grad``, which RK4 nodes call, is held to ``value`` and to that
stacked ``grad`` the same way, and so are ``values``, which the scaling
verifier reads on its whole probe stack, and the row-by-row momentum map
and lift that the Noether series and the homothetic check apply to whole
trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scalesym import (
    CollisionDetected,
    NBodySpec,
    ScalarField,
    ScalingAction,
    anisotropic_kepler_system,
    damped_oscillator,
    homogeneous_system,
    make_system,
    momentum_field,
    nbody_system,
    power_law_system,
)
from scalesym import systems
from scalesym.scaling import _lift, _momentum

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


def assert_fused_matches_separate(field: ScalarField, Q, P):
    """value_and_grad at each row gives value's float and grad's arrays there,
    bit for bit, and its gradient is that row of grad on the whole stack."""
    gq, gp = field.grad(Q, P)
    for k, (q, p) in enumerate(zip(Q, P)):
        value, (fq, fp) = field.value_and_grad(q.copy(), p.copy())
        assert _bits(value) == _bits(field.value(q.copy(), p.copy()))
        alone_q, alone_p = field.grad(q.copy(), p.copy())
        assert _bits(fq) == _bits(alone_q) == _bits(gq[k])
        assert _bits(fp) == _bits(alone_p) == _bits(gp[k])


@st.composite
def _stack(draw, n, elements=_coordinates):
    b = draw(_rows)
    return (draw(arrays(float, (b, n), elements=elements)),
            draw(arrays(float, (b, n), elements=_coordinates)))


def assert_values_match_rows(field: ScalarField, Q, P):
    """values on the stack is value at each row alone, bit for bit, and on
    one state it is value's float."""
    rows = [field.value(q.copy(), p.copy()) for q, p in zip(Q, P)]
    assert _bits(field.values(Q, P)) == _bits(rows)
    assert _bits(field.values(Q[0].copy(), P[0].copy())) == _bits(rows[0])


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
    built = make_system({"type": "homogeneous", "alpha": -1.0, "n": n,
                         "potential": lambda q: -1.0 / np.sqrt(q @ q),
                         "gradient": lambda q: q * (q @ q) ** -1.5,
                         "mass_matrix": a @ a.T + n * np.eye(n) + 0.5 * (1 - np.eye(n))})
    assert built.system._mass_diagonal is None
    Q, P = data.draw(_stack(n, elements=_nonzero))
    assert_stack_matches_rows(built.system.hamiltonian_field(), Q, P)


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


# --- value_and_grad: one evaluation, the same bits ---------------------------

@settings(derandomize=True, database=None, deadline=None)
@given(_nbody_stacks())
def test_nbody_value_and_grad_is_value_and_grad(case):
    spec, Q, P = case
    field = nbody_system(spec).hamiltonian_field()
    assert field.value_and_grad is not None
    assert_fused_matches_separate(field, Q, P)


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(0.2, 5.0), _stack(2, elements=_nonzero))
def test_anisotropic_kepler_value_and_grad_is_value_and_grad(mu, stack):
    assert_fused_matches_separate(anisotropic_kepler_system(mu).hamiltonian_field(),
                                  *stack)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 4),
       st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0]) | st.floats(-3.0, 3.0).filter(bool),
       st.floats(-2.0, 2.0))
def test_power_law_value_and_grad_is_value_and_grad(data, n, alpha, k):
    Q, P = data.draw(_stack(n, elements=_nonzero))
    assert_fused_matches_separate(power_law_system(n, alpha, k).hamiltonian_field(),
                                  Q, P)


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(0.0, 2.0), _stack(1))
def test_damped_oscillator_value_and_grad_is_value_and_grad(friction, stack):
    assert_fused_matches_separate(damped_oscillator(friction).field, *stack)


# --- values: H on a whole stack, the same bits --------------------------------

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
    field.values(Q, rng.uniform(-1.0, 1.0, (8, spec.n)))
    assert calls == [(8, spec.n)]


def test_nbody_values_raise_for_one_colliding_row():
    spec = NBodySpec((1.0, 1.0, 1.0), dim=2)
    field = nbody_system(spec).hamiltonian_field()
    Q = np.tile([0.0, 0.0, 1.0, 0.0, 0.0, 1.0], (4, 1))
    Q[2, 2:4] = 0.0  # body 1 on body 0 in row 2 only
    with pytest.raises(CollisionDetected):
        field.values(Q, np.zeros_like(Q))


def test_a_one_state_field_gets_values_row_by_row():
    # value reduces over its whole argument, so it is right for one state only
    field = ScalarField(value=lambda q, p: float(q @ q) + float(p.sum()),
                        grad=lambda q, p: (2.0 * q, np.ones_like(p)))
    Q, P = np.random.default_rng(5).normal(size=(2, 6, 3))
    assert_values_match_rows(field, Q, P)
    assert field.values(Q.reshape(2, 3, 3), P.reshape(2, 3, 3)).shape == (2, 3)


# --- whole trajectories: momentum map and lift, row by row --------------------

@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 30))
def test_dilation_momentum_of_a_stack_is_each_rows(data, n):
    weights = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    action = ScalingAction.dilation(weights, 0.5, -1.0)
    Q, P = data.draw(_stack(n))
    J = _momentum(action, Q, P)
    assert _bits(J) == _bits([_momentum(action, q.copy(), p.copy())
                              for q, p in zip(Q, P)])


@settings(derandomize=True, database=None, deadline=None)
@given(_stack(2))
def test_custom_momentum_of_a_stack_is_each_rows(stack):
    action = quadratic_action()
    Q, P = stack
    assert _bits(_momentum(action, Q, P)) == _bits(
        [_momentum(action, q.copy(), p.copy()) for q, p in zip(Q, P)])


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
    Q, P = _lift(action, g, q, p)
    rows = [_lift(action, float(gk[0]), q, p) for gk in g]
    assert _bits(Q) == _bits([r[0] for r in rows])
    assert _bits(P) == _bits([r[1] for r in rows])
