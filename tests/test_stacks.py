"""The ScalarField stack contract: grad on a (B, n) stack equals, row for
row and bit for bit, grad on each row alone.

flow_jacobian integrates its probes as one stack and relies on this, so
every in-package field is swept here over random stacks.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scalesym import (
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

from conftest import quadratic_action

_rows = st.integers(1, 5)
_coordinates = st.floats(-2.0, 2.0)
_nonzero = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)  # rows away from q = 0


def assert_stack_matches_rows(field: ScalarField, Q, P):
    gq, gp = field.grad(Q, P)
    rows = [field.grad(q.copy(), p.copy()) for q, p in zip(Q, P)]
    assert np.array_equal(gq, np.stack([r[0] for r in rows]))
    assert np.array_equal(gp, np.stack([r[1] for r in rows]))


@st.composite
def _stack(draw, n, elements=_coordinates):
    b = draw(_rows)
    return (draw(arrays(float, (b, n), elements=elements)),
            draw(arrays(float, (b, n), elements=_coordinates)))


@st.composite
def _nbody_stacks(draw):
    # body k of each row sits within 0.3 of (k, 0, ...), so separations are >= 0.4
    bodies, dim = draw(st.integers(2, 6)), draw(st.integers(1, 3))
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
