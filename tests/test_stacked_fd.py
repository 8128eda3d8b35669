"""The stacked finite-difference core: one call of f on the whole probe stack.

The solver's residual and the cotangent lift take (B, n) stacks, and each
row must equal, bit for bit, the same function evaluated on that row alone;
the Jacobians built from one stacked call must then equal the public,
row-by-row ``fd_jacobian`` exactly.  The core on a stack of base points,
and its two-probe diagonal for maps that act coordinate by coordinate,
must equal the core at each point alone.  Row-by-row references use xi as the
scalar ``x[-1]``, the way a single state is evaluated.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scalesym import (
    CollisionDetected,
    FD_STEP,
    NBodySpec,
    ScalingAction,
    SolverDidNotConverge,
    anisotropic_kepler_system,
    fd_jacobian,
    locked_inertia,
    nbody_potential_and_gradient,
    nbody_system,
    phase_jacobian_fd,
    power_law_system,
    solve_central_configuration,
)
from scalesym import equilibria
from scalesym.cli import _random_start
from scalesym.equilibria import _solver_residual
from scalesym.errors import NonFiniteValue
from scalesym.phase import _fd_diagonal, _fd_stack_jacobian
from scalesym.scaling import _lift

from conftest import kepler_action, quadratic_action, random_phase_point

# xi for which the scalar pow xi ** 2 and numpy's array xi ** 2 (x * x)
# round differently in the last bit.
POW_TRAPS = [1.8764797510899993, 2.807299736595463, 1.3937028150943764]

_rows = st.integers(1, 5)
_xi = st.floats(0.1, 5.0)
_nonzero = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)  # rows away from q = 0


def assert_residual_stack_matches_rows(system, action, X, target=1.0, fix_xi=None):
    """_solver_residual on the stack X equals the np.stack of its rows alone;
    a single state with xi as a (1,) column, as the solver passes its trial
    steps, equals the row too."""
    if fix_xi is None:
        stacked = _solver_residual(system, action, X[:, :-1], X[:, -1:], target, None)
        rows = [_solver_residual(system, action, x[:-1], x[-1], target, None)
                for x in X.copy()]
        for x, row in zip(X, rows):
            assert np.array_equal(
                _solver_residual(system, action, x[:-1], x[-1:], target, None), row)
    else:
        stacked = _solver_residual(system, action, X, fix_xi, target, fix_xi)
        rows = [_solver_residual(system, action, x, fix_xi, target, fix_xi)
                for x in X.copy()]
    assert np.array_equal(stacked, np.stack(rows))


@st.composite
def _nbody_case(draw):
    # body k of each row sits within 0.3 of (k, 0, ...), so separations are >= 0.4
    bodies, dim = draw(st.integers(2, 20)), draw(st.integers(1, 3))
    masses = draw(st.lists(st.floats(0.1, 5.0), min_size=bodies, max_size=bodies))
    spec = NBodySpec(tuple(masses), dim=dim)
    b = draw(_rows)
    jitter = draw(arrays(float, (b, spec.n), elements=st.floats(-2.0, 2.0)))
    lattice = np.zeros((bodies, dim))
    lattice[:, 0] = np.arange(bodies)
    xi = draw(arrays(float, (b, 1), elements=_xi))
    return spec, np.hstack((lattice.ravel() + 0.15 * jitter, xi))


@st.composite
def _spd(draw, n):
    a = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    return a @ a.T + n * np.eye(n) + 0.5 * (1 - np.eye(n))


@settings(derandomize=True, database=None, deadline=None)
@given(_nbody_case(), st.floats(0.1, 10.0))
def test_nbody_solver_residual_stacks(case, target):
    spec, X = case
    assert_residual_stack_matches_rows(nbody_system(spec), kepler_action(spec.n),
                                       X, target)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.data(), st.integers(1, 4), st.floats(-3.0, 3.0).filter(bool),
       st.floats(-1.0, 1.0), st.none() | _xi)
def test_power_law_solver_residual_with_full_mass_matrix_stacks(data, n, alpha, c,
                                                                fix_xi):
    system = power_law_system(n, alpha, mass_matrix=data.draw(_spd(n)))
    assert system._mass_diagonal is None or n == 1
    action = ScalingAction.uniform_dilation(n, c, alpha)
    b = data.draw(_rows)
    X = data.draw(arrays(float, (b, n), elements=_nonzero))
    if fix_xi is None:
        X = np.hstack((X, data.draw(arrays(float, (b, 1), elements=_xi))))
    assert_residual_stack_matches_rows(system, action, X, fix_xi=fix_xi)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.data(), st.integers(1, 5), st.floats(-1.0, 1.0), st.none() | _xi)
def test_weighted_dilation_solver_residual_stacks(data, n, c, fix_xi):
    weights = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    system = power_law_system(n, -1.0)
    action = ScalingAction.dilation(weights, c, -1.0)
    b = data.draw(_rows)
    X = data.draw(arrays(float, (b, n), elements=_nonzero))
    if fix_xi is None:
        X = np.hstack((X, data.draw(arrays(float, (b, 1), elements=_xi))))
    assert_residual_stack_matches_rows(system, action, X, fix_xi=fix_xi)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.data(), st.floats(0.2, 5.0), st.floats(-1.0, 1.0), st.none() | _xi)
def test_custom_action_solver_residual_stacks(data, mu, c, fix_xi):
    system = anisotropic_kepler_system(mu)
    action = quadratic_action(c, -1.0)
    b = data.draw(_rows)
    X = data.draw(arrays(float, (b, 2), elements=_nonzero))
    if fix_xi is None:
        X = np.hstack((X, data.draw(arrays(float, (b, 1), elements=_xi))))
    assert_residual_stack_matches_rows(system, action, X, fix_xi=fix_xi)


@pytest.mark.parametrize("xi", POW_TRAPS)
def test_solver_residual_stacks_where_array_square_rounds_differently(xi):
    assert (np.array([xi]) ** 2)[0] != xi ** 2  # the trap is real
    spec = NBodySpec((1.0, 2.0, 0.5), dim=2)
    q = np.array([-0.9, 0.1, 0.2, 0.8, 0.6, -0.7])
    X = np.array([np.append(q, xi), np.append(1.1 * q, xi), np.append(q, 0.5)])
    assert_residual_stack_matches_rows(nbody_system(spec), kepler_action(6), X)
    system = power_law_system(2, -1.0, mass_matrix=[[2.0, 0.5], [0.5, 1.0]])
    action = ScalingAction.uniform_dilation(2, 0.5, -1.0)
    assert_residual_stack_matches_rows(system, action, np.array([[0.7, -0.3, xi]]))
    assert_residual_stack_matches_rows(system, action, np.array([[0.7, -0.3]]),
                                       fix_xi=xi)


# --- Jacobians ---------------------------------------------------------------

SHAPES = [(3, 2), (4, 3), (3, 1), (10, 3), (20, 3), (6, 2)]


@pytest.mark.parametrize("seed", range(24))
def test_solver_jacobian_equals_row_by_row_fd_jacobian(seed, monkeypatch):
    # Record the Jacobians the solver builds from the stacked core, and
    # compare each with the public fd_jacobian of the one-state residual.
    bodies, dim = SHAPES[seed % len(SHAPES)]
    rng = np.random.default_rng(seed)
    system = nbody_system(NBodySpec(tuple(rng.uniform(0.1, 5.0, bodies)), dim=dim))
    action = kepler_action(system.n)
    q0 = _random_start(system, rng)
    target = locked_inertia(system, action, q0)
    seen = []

    def recording(F, x):
        jac = _fd_stack_jacobian(F, x)
        seen.append((x.copy(), jac))
        return jac

    monkeypatch.setattr(equilibria, "_fd_stack_jacobian", recording)
    try:
        solve_central_configuration(system, action, q0, max_iter=3,
                                    verify_symmetry=False)
    except SolverDidNotConverge:
        pass
    assert seen
    for x, jac in seen:
        expected = fd_jacobian(
            lambda w: _solver_residual(system, action, w[:-1], w[-1], target, None), x)
        assert np.array_equal(jac, expected)


@pytest.mark.parametrize("action", [ScalingAction.dilation([1.0, 2.0, -0.5], 0.5, -1.0),
                                    quadratic_action()],
                         ids=["weighted-dilation", "custom"])
def test_phase_jacobian_fd_equals_row_mapped_lift(action):
    rng = np.random.default_rng(7)
    n = action.n
    for _ in range(10):
        z = random_phase_point(rng, n)
        g = float(np.exp(rng.uniform(-0.7, 0.7)))
        expected = fd_jacobian(lambda w: np.concatenate(_lift(action, g, w[:n], w[n:])),
                               z.flat())
        assert np.array_equal(phase_jacobian_fd(action, g, z), expected)


def test_solver_jacobian_with_one_colliding_probe_raises():
    # Bodies at -3 and -2: the probe steps are about 3 and 2 FD_STEP, and the
    # threshold sits between the two shortened separations, so only the row
    # q_0 + h_0 comes inside it; the start itself is clear.
    system = nbody_system(NBodySpec((1.0, 1.0), dim=1),
                          collision_threshold=1.0 - 2.5 * FD_STEP)
    action = kepler_action(2)
    x = np.array([-3.0, -2.0, 1.0])
    X = np.array([x, x + [3.0 * FD_STEP, 0.0, 0.0], x + [0.0, -2.0 * FD_STEP, 0.0]])
    _solver_residual(system, action, X[[0, 2], :-1], X[[0, 2], -1:], 1.0, None)
    with pytest.raises(CollisionDetected):
        _solver_residual(system, action, X[:, :-1], X[:, -1:], 1.0, None)

    def residual(w):
        return _solver_residual(system, action, w[..., :-1], w[..., -1:], 1.0, None)

    residual(x)
    with pytest.raises(CollisionDetected):
        _fd_stack_jacobian(residual, x)
    with pytest.raises(CollisionDetected):
        fd_jacobian(residual, x)
    with pytest.raises(CollisionDetected):
        solve_central_configuration(system, action, x[:-1], verify_symmetry=False)


def test_nan_row_does_not_hide_a_colliding_row():
    # np.min over the stack would be NaN, and NaN <= threshold is False
    spec = NBodySpec((1.0, 1.0), dim=1)
    with pytest.raises(CollisionDetected):
        nbody_potential_and_gradient(spec, np.array([[0.0, 1e-7], [0.0, np.nan]]))


def test_solver_jacobian_calls_the_residual_once_per_iteration(monkeypatch):
    calls = []
    residual = equilibria._solver_residual

    def counting(system, action, q, *args):
        calls.append(np.shape(q))
        return residual(system, action, q, *args)

    monkeypatch.setattr(equilibria, "_solver_residual", counting)
    system = nbody_system(NBodySpec((1.0, 1.0, 2.0), dim=2))
    q0 = np.array([-0.52, -0.21, 0.47, -0.23, 0.02, 0.22])
    result = solve_central_configuration(system, kepler_action(6), q0,
                                         verify_symmetry=False)
    assert result.certified
    stacks = [shape for shape in calls if len(shape) == 2]
    assert stacks == [(14, 6)] * result.iterations


def _coupled(w):
    # couples the coordinates of a row; + - * / only, so no SIMD tail to differ
    a, b, c = w[..., 0], w[..., 1], w[..., 2]
    return np.stack((a * b + c, b * b * c, a / (1.0 + c * c), a - b), axis=-1)


def test_fd_core_on_a_stack_of_base_points_is_each_points_jacobian():
    X = np.random.default_rng(4).uniform(-2.0, 2.0, (2, 5, 3))
    stacked = _fd_stack_jacobian(_coupled, X)
    assert stacked.shape == (2, 5, 4, 3)
    for index in np.ndindex(2, 5):
        assert np.array_equal(stacked[index], _fd_stack_jacobian(_coupled, X[index]))


@pytest.mark.parametrize("shape", [(7,), (4, 7), (2, 3, 7)])
def test_fd_diagonal_of_a_coordinatewise_map_is_the_cores_diagonal(shape):
    def cubic(w):
        return w * w * w - 2.0 * w + 0.5

    X = np.random.default_rng(6).uniform(-3.0, 3.0, shape)
    full = _fd_stack_jacobian(cubic, X)
    assert np.array_equal(_fd_diagonal(cubic, X), np.diagonal(full, axis1=-2, axis2=-1))
    assert np.count_nonzero(full) == np.count_nonzero(_fd_diagonal(cubic, X))


def test_fd_diagonal_raises_where_the_core_does():
    def capped(w):
        return np.where(w > 1.0, np.inf, w)

    x = np.array([[0.5, 0.2], [0.3, 1.0]])  # 1.0 + h crosses the cap
    with pytest.raises(NonFiniteValue):
        _fd_stack_jacobian(capped, x)
    with pytest.raises(NonFiniteValue):
        _fd_diagonal(capped, x)
    assert np.array_equal(_fd_diagonal(capped, x[:1]),
                          np.diagonal(_fd_stack_jacobian(capped, x[:1]), axis1=-2, axis2=-1))
