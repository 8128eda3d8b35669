"""Canonical symplectic structure of T*Q in coordinates.

Phase space is R^n x R^n with coordinates (q, p).  The sign convention is
fixed once for the whole package:

    theta = p dq,        omega = -d theta = dq ^ dp,

so that on tangent vectors stacked as (dq, dp) the symplectic form is the
block matrix ``omega_matrix(n)``

    Omega = [[ 0,  I],
             [-I,  0]],

i.e. omega(u, v) = u.dq . v.dp - u.dp . v.dq.  A conformal Hamiltonian
vector field with parameter c is the unique X satisfying

    i_X omega + c theta = dF,

which in these coordinates reads X = (dF/dp, -dF/dq + c p).  With c = 0
this is the ordinary Hamiltonian vector field.  ``_conformal_field``
evaluates it on flat states y = (q, p) or (..., 2n) stacks of them; the
RK4 loop calls it at every node and stage, and the scaling verifier's
momentum-map check reads X_{J_xi}^{xi c} from it.

``PhasePoint`` is validated once, where a state enters or leaves the
public API; inner loops (RK4 stages, finite-difference probes, per-row
momenta and lifts) pass a ``ScalarField`` bare (q, p) arrays.
A field's ``value`` and ``grad`` also take stacks: q and p of shape
(..., n), one state per row, with every row computed as if it came alone.
That is what lets ``flow_jacobian`` integrate all of its probes at once,
and the scaling verifier read H on its whole probe stack in one call.
The conformal vector field reads ``grad`` alone; ``integrate`` reads a
trajectory's H by ``value`` on stacks of its stored nodes.

The module also provides the central-difference Jacobian behind every
numerical derivative in the package: the gradient oracle for analytic
gradients, the lift and flow Jacobians the certificates test, and the
solver's Jacobian.  One private core, ``_fd_stack_jacobian``, builds the
probe stack (rows 2i and 2i+1 are x + h_i e_i and x - h_i e_i), calls f
once on the whole stack and forms the difference quotients.  The solver's
residual, the cotangent lift and ``flow_jacobian``'s RK4 loop take the
stack as it is; the public ``fd_jacobian`` keeps its one-state contract by
mapping f over the rows.  The core also takes a stack of base points, as
the verifier's custom-action lifts do, and ``_fd_diagonal`` gives the
same diagonal from two probes per point for a map that acts coordinate by
coordinate, as a dilation's lift does.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue

# Per-coordinate step for central differences: cbrt(machine eps) * max(1, |x_i|).
FD_STEP = float(np.cbrt(np.finfo(float).eps))


def _as_finite_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteValue(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) of T*Q in canonical coordinates."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _as_finite_vector(self.q, "q")
        p = _as_finite_vector(self.p, "p")
        if len(q) != len(p):
            raise DimensionMismatch(f"len(q)={len(q)} != len(p)={len(p)}")
        if len(q) < 1:
            raise DimensionMismatch("phase point needs n >= 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return len(self.q)

    def flat(self) -> np.ndarray:
        """Stacked coordinates (q_1..q_n, p_1..p_n)."""
        return np.concatenate((self.q, self.p))

    @staticmethod
    def from_flat(z) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        n = len(z) // 2
        return PhasePoint(z[:n], z[n:])


@dataclass(frozen=True)
class ScalarField:
    """A smooth function on phase space together with its gradient.

    ``value(q, p)`` maps the bare coordinate arrays to a float; ``grad(q, p)``
    returns the pair (dF/dq, dF/dp).  Both broadcast over leading axes:
    given (..., n) stacks, ``value`` returns a (...) array and ``grad`` two
    (..., n) stacks, and each row equals that of the row alone, bit for bit.
    Use :meth:`from_value` for a function written for one state, or when no
    analytic gradient is available; its finite-difference gradient
    satisfies the same contract at reduced accuracy.

    RK4 stages and nodes call ``grad`` alone; ``integrate`` reads H by
    ``value`` on stacks of stored nodes, and the scaling verifier on its
    probe stack, so a ``value`` that returns one float for a stack raises
    DimensionMismatch there.
    """

    value: Callable[[np.ndarray, np.ndarray], float | np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    @classmethod
    def from_value(cls, value: Callable[..., float]) -> "ScalarField":
        """The field of ``value``, written for one state, mapped over the
        rows of a stack, with a central-difference gradient."""
        def fd_grad(q, p):
            n = len(q)
            g = fd_gradient(lambda w: value(w[:n], w[n:]), np.concatenate((q, p)))
            return g[:n], g[n:]

        return cls(value=lambda q, p: _map_rows(value, q, p),
                   grad=lambda q, p: _map_rows(fd_grad, q, p))


def _map_rows(f: Callable, *stacks):
    """Apply f, written for one state, to each row of (..., n) stacks.

    A 1-d input is one plain call of f.  Otherwise f runs once per row and
    its results are stacked on the same leading axes; a tuple result is
    stacked component by component.
    """
    if np.ndim(stacks[0]) == 1:
        return f(*stacks)
    lead = np.shape(stacks[0])[:-1]
    rows = [f(*(s[i] for s in stacks)) for i in np.ndindex(lead)]

    def stack(values):
        values = np.array(values, dtype=float)
        return values.reshape(lead + values.shape[1:])

    if isinstance(rows[0], tuple):
        return tuple(stack(part) for part in zip(*rows))
    return stack(rows)


def _dot_rows(a, b):
    """a . b for vectors, or row by row for (..., n) stacks (a float, or a
    (...) array).  Each row is reduced as ``a @ b`` reduces one vector, by
    BLAS dot, so a stacked row equals the lone vector's float bit for bit;
    ``(a * b).sum(-1)`` and ``np.linalg.norm(..., axis=-1)`` sum in another
    order."""
    dot = (np.asarray(a)[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]
    return float(dot) if dot.ndim == 0 else dot


def omega_matrix(n: int) -> np.ndarray:
    """The 2n x 2n matrix of omega on (dq, dp) stacks: [[0, I], [-I, 0]]."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _conformal_field(F: ScalarField, c, y: np.ndarray) -> np.ndarray:
    """X_F^c = (dF/dp, -dF/dq + c p) at the flat state y = (q, p), or row by
    row on a (..., 2n) stack of them, with c a float or a (..., 1) column.

    F.grad is called once and must return arrays shaped like the states; a
    field written for one state that drops the stack axis raises
    DimensionMismatch.  Finiteness is left to the caller (RK4 checks each
    node).
    """
    n = y.shape[-1] // 2
    q, p = y[..., :n], y[..., n:]
    gq, gp = (np.asarray(g, float) for g in F.grad(q, p))
    if gq.shape != q.shape or gp.shape != p.shape:
        raise DimensionMismatch(
            f"grad returned shapes {gq.shape}, {gp.shape} for states of "
            f"shape {q.shape}")
    return np.concatenate((gp, -gq + c * p), axis=-1)


def _fd_steps(x) -> np.ndarray:
    """cbrt(eps) * max(1, |x_i|) for each entry of x, snapped so that
    x_i + h_i - x_i is exact."""
    h = FD_STEP * np.fmax(1.0, np.abs(x))
    return (x + h) - x


def _fd_stack_jacobian(F: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian of F at x, with F called once on all probes.

    The probe stack has shape (2n, n): rows 2i and 2i+1 are x + h_i e_i and
    x - h_i e_i, with h_i = cbrt(eps) * max(1, |x_i|) rounded to a step
    exactly representable around x_i.  F maps the stack to its (2n, m)
    values, row for row; column i of the result is
    (F(x + h_i e_i) - F(x - h_i e_i)) / (2 h_i).  x may also be a (..., n)
    stack of base points: F then takes one (..., 2n, n) stack of their
    probes, and the (..., m, n) Jacobians each equal that of their base
    point alone.  Raises NonFiniteValue if F is not finite at any probe.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = _fd_steps(x)
    probes = np.repeat(x[..., None, :], 2 * n, axis=-2)
    i = np.arange(n)
    probes[..., 2 * i, i] += h
    probes[..., 2 * i + 1, i] -= h
    values = np.asarray(F(probes), dtype=float)
    finite = np.isfinite(values).all(axis=-1).reshape(-1, 2 * n).all(axis=0)
    if not finite.all():
        raise NonFiniteValue(f"f non-finite near coordinate {np.argmin(finite) // 2}")
    quotients = (values[..., 0::2, :] - values[..., 1::2, :]) / (2.0 * h[..., :, None])
    return np.ascontiguousarray(np.swapaxes(quotients, -1, -2))


def _fd_diagonal(F: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """The diagonal of ``_fd_stack_jacobian(F, x)``, bit for bit, for an F
    that acts coordinate by coordinate (entry i of F(x) reads x_i alone).

    Such an F needs two probes per base point, x + h and x - h with every
    coordinate stepped at once; F is called once on their (2, ..., n) stack.
    x is one base point or a (..., n) stack.  Raises NonFiniteValue if any
    diagonal entry is not finite.
    """
    x = np.asarray(x, dtype=float)
    h = _fd_steps(x)
    values = np.asarray(F(np.stack((x + h, x - h))), dtype=float)
    diagonal = (values[0] - values[1]) / (2.0 * h)
    if not np.isfinite(diagonal).all():
        raise NonFiniteValue("central-difference diagonal is not finite")
    return diagonal


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian of f at x, shape (len(f(x)), len(x)).

    Deterministic step per coordinate: h_i = cbrt(eps) * max(1, |x_i|),
    rounded to a step exactly representable around x_i.  f takes one state:
    it is called at x + h_i e_i, then at x - h_i e_i, for i in order, each
    probe its own row of a fresh stack, so f may return a view of its
    argument.  A scalar f gives a one-row Jacobian.  Raises NonFiniteValue
    if f is not finite at any probe.
    """
    return _fd_stack_jacobian(
        lambda probes: _map_rows(lambda w: np.atleast_1d(np.asarray(f(w), dtype=float)),
                                 probes), x)


def fd_gradient(f: Callable[[np.ndarray], float], x) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    return fd_jacobian(f, x)[0]


def check_gradient(F: ScalarField, points) -> float:
    """Max relative error of F.grad against fd_gradient over the given points.

    Returns the worst relative error, NaN if any error is NaN; raises
    nothing, so callers decide whether to treat a miss as fatal.
    """
    worst = 0.0
    for z in points:
        gq, gp = F.grad(z.q, z.p)
        analytic = np.concatenate((np.asarray(gq, float), np.asarray(gp, float)))
        numeric = fd_gradient(lambda w: F.value(w[:z.n], w[z.n:]), z.flat())
        scale = max(1.0, float(np.max(np.abs(numeric))))
        worst = _worst(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    return worst


def _worst(*residuals: float) -> float:
    """The largest residual; NaN if any is NaN (Python's max would drop it)."""
    return float(np.max(residuals))
