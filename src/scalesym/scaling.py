"""R+ actions on configuration space and their scaled cotangent lifts.

An action Psi of the multiplicative group R+ on Q = R^n lifts to phase
space as

    Phi_g(q, p) = (Psi_g(q), g^c (D Psi_g(q))^{-T} p),

which rescales the canonical forms by g^c.  The built-in family is the
weighted dilation Psi_g(q)_i = g^{w_i} q_i (uniform dilation when all
weights are 1); arbitrary actions can be supplied with analytic Jacobians.

For the Lie algebra element xi (a plain real), the lifted generator is

    (xi_Q(q), (c xi Id - (D xi_Q(q))^T) p),

and the momentum map J(q, p) = p . xi_Q(q)|_{xi=1} generates it as a
conformal Hamiltonian with parameter c xi.  ``verify_scaling_symmetry``
certifies numerically that a given (action, Hamiltonian) pair is a
scaling symmetry: conformality of the lift, conformal invariance of H,
the momentum-map identity, the scaling-function property of J, and
conformal invariance of J.  It draws its probes one at a time, then runs
each check once on the whole probe stack: one stacked lift, one
``ScalarField.values`` call for H at the probes and the lifted probes,
stacked gradients of J and generators, and, for a dilation, conformality
read from the diagonal of the lift's central-difference Jacobian, the
only entries that are not exactly 0.  The lifts, generators and momenta
take (..., n) stacks, with g or xi a (..., 1) column; each row is
computed as if it came alone.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CollisionDetected, DimensionMismatch, NonFiniteValue, SchemaError
from .phase import (
    PhasePoint,
    ScalarField,
    TangentVector,
    _dot_rows,
    _fd_diagonal,
    _fd_stack_jacobian,
    _map_rows,
    _worst,
    fd_jacobian,
    omega_matrix,
)


@dataclass(frozen=True)
class ScalingAction:
    """An R+ action on Q plus its lift exponent c and Hamiltonian weight b.

    Exactly one of two shapes: a weighted dilation (``weights`` set) or a
    custom action (``psi``/``dpsi``/``xi_q``/``dxi_q`` set, all analytic;
    finite differences are only used to cross-check them).
    """

    n: int
    c: float
    b: float
    weights: np.ndarray | None = None
    psi: Callable[[float, np.ndarray], np.ndarray] | None = None
    dpsi: Callable[[float, np.ndarray], np.ndarray] | None = None
    xi_q: Callable[[np.ndarray], np.ndarray] | None = None
    dxi_q: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.n,):
                raise DimensionMismatch(f"weights shape {w.shape} != ({self.n},)")
            object.__setattr__(self, "weights", w)
        elif None in (self.psi, self.dpsi, self.xi_q, self.dxi_q):
            raise ValueError("custom action needs psi, dpsi, xi_q and dxi_q")

    @property
    def is_dilation(self) -> bool:
        return self.weights is not None

    @classmethod
    def dilation(cls, weights, c: float, b: float) -> "ScalingAction":
        w = np.asarray(weights, dtype=float)
        return cls(n=len(w), c=float(c), b=float(b), weights=w)

    @classmethod
    def uniform_dilation(cls, n: int, c: float, b: float) -> "ScalingAction":
        return cls.dilation(np.ones(n), c, b)

    @classmethod
    def custom(cls, n, c, b, psi, dpsi, xi_q, dxi_q) -> "ScalingAction":
        """Build a custom action, cross-checking the supplied Jacobians.

        At 8 seeded probes, ``dpsi`` is compared against finite differences
        of ``psi``, ``xi_q`` against d/dt|_0 psi(e^t, q) and ``dxi_q``
        against finite differences of ``xi_q`` (relative tolerance 1e-6),
        and the group law psi(gh, q) = psi(g, psi(h, q)) is probed; any
        miss beyond the tolerances, or a NaN, raises.
        """
        action = cls(n=n, c=float(c), b=float(b), psi=psi, dpsi=dpsi,
                     xi_q=xi_q, dxi_q=dxi_q)
        rtol = 1e-6
        rng = np.random.default_rng(0)
        for _ in range(8):
            q = rng.uniform(-1.0, 1.0, size=n)
            g = float(np.exp(rng.uniform(-0.7, 0.7)))
            h = float(np.exp(rng.uniform(-0.7, 0.7)))
            if not _agrees(fd_jacobian(lambda w: psi(g, w), q), dpsi(g, q), rtol):
                raise ValueError("dpsi disagrees with finite differences of psi")
            gen_fd = fd_jacobian(lambda t: psi(np.exp(t[0]), q), [0.0])[:, 0]
            if not _agrees(gen_fd, xi_q(q), rtol):
                raise ValueError("xi_q disagrees with d/dt|0 psi(e^t, q)")
            if not _agrees(fd_jacobian(xi_q, q), dxi_q(q), rtol):
                raise ValueError("dxi_q disagrees with finite differences of xi_q")
            if not _agrees(psi(g * h, q), psi(g, psi(h, q)), 1e-10):
                raise ValueError("psi violates the group law psi(gh) = psi(g) o psi(h)")
        return action


def _agrees(reference, value, rtol: float) -> bool:
    """max |reference - value| <= rtol * max(1, max |reference|); a NaN on
    either side disagrees."""
    reference = np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.max(np.abs(reference))))
    return bool(np.max(np.abs(reference - value)) <= rtol * scale)


def act_config(action: ScalingAction, g: float, q) -> np.ndarray:
    """Apply Psi_g to a configuration."""
    if g <= 0:
        raise ValueError(f"group element must be positive, got g={g}")
    q = np.asarray(q, dtype=float)
    if action.is_dilation:
        return g ** action.weights * q
    return np.asarray(action.psi(g, q), dtype=float)


def config_jacobian(action: ScalingAction, g: float, q) -> np.ndarray:
    """D Psi_g(q), the n x n Jacobian of the configuration action."""
    q = np.asarray(q, dtype=float)
    if action.is_dilation:
        return np.diag(g ** action.weights)
    return np.asarray(action.dpsi(g, q), dtype=float)


def _lift(action: ScalingAction, g, q, p) -> tuple[np.ndarray, np.ndarray]:
    """act_phase on bare coordinate arrays, or row by row on (..., n) stacks,
    with g a float or a (..., 1) column of group elements (one per row)."""
    if np.any(np.asarray(g) <= 0):
        raise ValueError(f"group element must be positive, got g={g}")
    if action.is_dilation:
        # (D Psi_g)^{-T} is diagonal: momenta pick up g^{c - w_i}.
        return g ** action.weights * q, g ** (action.c - action.weights) * p

    def lift_one(g, q, p):  # a custom action's psi and dpsi take one state
        g = float(g[0])
        jac = config_jacobian(action, g, q)
        p_new = g ** action.c * np.linalg.solve(jac.T, p)
        return act_config(action, g, q), p_new

    g = np.reshape(g, np.shape(g) or (1,))  # a float is a one-entry column
    lead = np.broadcast_shapes(g.shape[:-1], np.shape(q)[:-1])
    return _map_rows(lift_one, *(np.broadcast_to(x, lead + np.shape(x)[-1:])
                                 for x in (g, q, p)))


def act_phase(action: ScalingAction, g: float, z: PhasePoint) -> PhasePoint:
    """Scaled cotangent lift: (Psi_g(q), g^c (D Psi_g(q))^{-T} p)."""
    return PhasePoint(*_lift(action, g, z.q, z.p))


def generator_config(action: ScalingAction, xi: float, q) -> np.ndarray:
    """Infinitesimal generator xi_Q(q) = d/dt|_0 Psi_{exp(t xi)}(q).

    Row by row for a (..., n) stack of configurations, with xi a float or a
    (..., 1) column.
    """
    q = np.asarray(q, dtype=float)
    if action.is_dilation:
        return xi * action.weights * q
    return xi * np.asarray(_map_rows(action.xi_q, q), dtype=float)


def generator_config_jacobian(action: ScalingAction, xi: float, q) -> np.ndarray:
    """D xi_Q(q) for the given xi; (..., n, n) for a (..., n) stack of
    custom-action configurations (a dilation's is the same for every q) or
    for xi a (..., 1) column."""
    q = np.asarray(q, dtype=float)
    xi = np.asarray(xi, dtype=float)[..., None]  # one xi per matrix
    if action.is_dilation:
        return xi * np.diag(action.weights)
    return xi * np.asarray(_map_rows(action.dxi_q, q), dtype=float)


def _transpose_times(a, v) -> np.ndarray:
    """a.T @ v, or row by row for (..., n, n) and (..., n) stacks (either
    may be one matrix or vector), each row reduced as the lone product."""
    return (np.swapaxes(a, -1, -2) @ np.asarray(v)[..., None])[..., 0]


def _generator(action: ScalingAction, xi: float, q, p) -> tuple[np.ndarray, np.ndarray]:
    """generator_phase on bare coordinate arrays, or row by row on (..., n)
    stacks with xi a float or a (..., 1) column."""
    dq = generator_config(action, xi, q)
    djac = generator_config_jacobian(action, xi, q)
    return dq, action.c * xi * p - _transpose_times(djac, p)


def generator_phase(action: ScalingAction, xi: float, z: PhasePoint) -> TangentVector:
    """Lifted generator (xi_Q(q), (c xi Id - (D xi_Q(q))^T) p)."""
    return TangentVector(*_generator(action, xi, z.q, z.p))


def _momentum(action: ScalingAction, q, p) -> float:
    """momentum_map on bare coordinate arrays, or row by row on (..., n)
    stacks, each row the float of that row alone."""
    return _dot_rows(p, generator_config(action, 1.0, q))


def momentum_map(action: ScalingAction, z: PhasePoint) -> float:
    """Conformal momentum map J(q, p) = p . xi_Q(q) at xi = 1.

    The conformal momentum function for general xi is J_xi = xi * J.
    """
    return _momentum(action, z.q, z.p)


def _momentum_grad(action: ScalingAction, xi, q, p) -> tuple[np.ndarray, np.ndarray]:
    """(dJ_xi/dq, dJ_xi/dp) on bare coordinate arrays, or row by row on
    (..., n) stacks with xi a float or a (..., 1) column."""
    djac = generator_config_jacobian(action, xi, q)
    return _transpose_times(djac, p), generator_config(action, xi, q)


def momentum_field(action: ScalingAction, xi: float = 1.0) -> ScalarField:
    """J_xi as a ScalarField with analytic gradient."""

    def value(q, p) -> float:
        return xi * _momentum(action, q, p)

    return ScalarField(value=value, grad=lambda q, p: _momentum_grad(action, xi, q, p))


def lift_exponent(a: float, b: float) -> float:
    """Lift exponent (a + b) / 2 for kinetic weight a and potential weight b."""
    return (a + b) / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "passed": self.passed}


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of verify_scaling_symmetry; deterministic for a given seed."""

    checks: tuple[CheckResult, ...]
    samples: int
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return _worst(*(c.max_residual for c in self.checks))

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "samples": self.samples,
                "seed": self.seed, "tol": self.tol,
                "checks": [c.to_dict() for c in self.checks]}


def _default_probe(action: ScalingAction, H: ScalarField, rng) -> PhasePoint:
    # Redraw while H is singular or huge (e.g. near-collision n-body states);
    # any other exception from H is a fault of H and propagates.
    for _ in range(100):
        z = PhasePoint(rng.uniform(-1.25, 1.25, size=action.n),
                       rng.uniform(-1.25, 1.25, size=action.n))
        try:
            value = H.value(z.q, z.p)
        except (CollisionDetected, ArithmeticError, ValueError):
            continue
        if np.isfinite(value) and abs(value) < 1e3:
            return z
    raise NonFiniteValue("could not draw a probe with finite, moderate H")


def _rel(err, *scales):
    """err / max(1, |s| for s in scales), elementwise over probe arrays; a
    NaN scale is skipped, as Python's max skips it (np.fmax, not np.maximum)."""
    scale = 1.0
    for s in scales:
        scale = np.fmax(scale, np.abs(s))
    return err / scale


def _lift_flat(action: ScalingAction, g, w) -> np.ndarray:
    """_lift on flat (..., 2n) phase coordinates (q_1..q_n, p_1..p_n)."""
    n = action.n
    return np.concatenate(_lift(action, g, w[..., :n], w[..., n:]), axis=-1)


def phase_jacobian_fd(action: ScalingAction, g: float, z: PhasePoint) -> np.ndarray:
    """Finite-difference Jacobian of act_phase(g, .) at z (2n x 2n), with
    all 4n probes lifted in one call."""
    return _fd_stack_jacobian(lambda w: _lift_flat(action, g, w), z.flat())


def _conformality_defects(action: ScalingAction, g, scale, x) -> np.ndarray:
    """max |A^T Omega A - scale Omega| over the entries, for A the
    central-difference Jacobian of the lift by g at each row of the (S, 2n)
    stack x, with g an (S, 1) column and scale an (S,) array.  Raises
    NonFiniteValue if A, or for a dilation its diagonal, is not finite at
    some row.
    """
    n = action.n
    if action.is_dilation:
        # The lift acts coordinate by coordinate, so every off-diagonal
        # quotient of A is exactly 0 and each nonzero entry of A^T Omega A
        # is the one rounded product +-d_i d_{i+n} of A's diagonal d: the
        # same bits as the full product, without its (2n)^3 gemms.
        d = _fd_diagonal(lambda w: _lift_flat(action, g, w), x)
        return np.max(np.abs(d[:, :n] * d[:, n:] - scale[:, None]), axis=-1)
    jac = _fd_stack_jacobian(lambda w: _lift_flat(action, g[:, None], w), x)
    omega = omega_matrix(n)
    product = np.swapaxes(jac, -1, -2) @ omega @ jac
    return np.max(np.abs(product - scale[:, None, None] * omega), axis=(-2, -1))


def verify_scaling_symmetry(action: ScalingAction, H: ScalarField,
                            samples: int = 32, seed: int = 0, *,
                            tol: float = 1e-6,
                            probe=None) -> SymmetryReport:
    """Certify that (action, H) is a scaling symmetry at seeded random probes.

    Five checks, each reporting its max relative residual over the probes:

    1. conformality:        A^T Omega A = g^c Omega for A the lift Jacobian
    2. invariance:          H(Phi_g z) = g^b H(z)
    3. momentum-map:        X_{J_xi}^{xi c} equals the lifted generator
    4. scaling-function:    dJ . X_J^c = c J
    5. momentum-invariance: J(Phi_g z) = g^c J(z)

    The probes, each with its group element g and Lie algebra element xi,
    are drawn one at a time (a redrawn probe consumes the generator too);
    then each check runs once on the (samples, n) stacks, and H once, by
    ``H.values``, on the probes and lifted probes together.  Each check's
    residual is the one a loop over single probes gives, bit for bit.

    Failures are reported, not raised.  A NaN or infinite residual fails
    its check and is reported as is.  Each probe is validated once, as a
    PhasePoint; the lifted probes, the gradients of J and the generator
    stay bare arrays, so a non-finite one gives its check a NaN residual.
    A lift that is not finite next to a probe has no finite-difference
    Jacobian, and gives conformality a NaN residual.
    """
    if samples < 1:
        raise SchemaError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    zs, gs, xis = [], [], []
    for _ in range(samples):
        zs.append(probe(rng) if probe is not None else _default_probe(action, H, rng))
        gs.append(float(np.exp(rng.uniform(-np.log(2.0), np.log(2.0)))))
        xis.append(float(rng.uniform(0.25, 2.0)))
    q = np.array([z.q for z in zs])
    p = np.array([z.p for z in zs])
    g = np.array(gs)[:, None]
    xi = np.array(xis)[:, None]
    # Python float pows, one per probe: NumPy's array pow differs from them
    # in the last bit for some g.
    g_c = np.array([gk ** action.c for gk in gs])
    g_b = np.array([gk ** action.b for gk in gs])
    residuals = {}

    try:
        defect = _conformality_defects(action, g, g_c, np.concatenate((q, p), axis=-1))
    except NonFiniteValue:
        defect = np.nan
    residuals["conformality"] = _rel(defect, g_c)

    q_g, p_g = _lift(action, g, q, p)
    h = H.values(np.concatenate((q, q_g)), np.concatenate((p, p_g)))
    h0, h1 = h[:samples], h[samples:]
    residuals["invariance"] = _rel(np.abs(h1 - g_b * h0), h1, g_b * h0)

    # X_{J_xi}^{xi c} = (dJ_xi/dp, -dJ_xi/dq + xi c p)
    gq, gp = _momentum_grad(action, xi, q, p)
    xv = np.concatenate((gp, -gq + (xi * action.c) * p), axis=-1)
    gen = np.concatenate(_generator(action, xi, q, p), axis=-1)
    residuals["momentum-map"] = _rel(np.max(np.abs(xv - gen), axis=-1),
                                     np.max(np.abs(gen), axis=-1))

    j0 = _momentum(action, q, p)
    gq, gp = _momentum_grad(action, 1.0, q, p)
    directional = _dot_rows(gq, gp) + _dot_rows(gp, -gq + action.c * p)  # dJ . X_J^c
    residuals["scaling-function"] = _rel(np.abs(directional - action.c * j0), j0)

    j1 = _momentum(action, q_g, p_g)
    residuals["momentum-invariance"] = _rel(np.abs(j1 - g_c * j0), j1, j0)

    checks = []
    for name, res in residuals.items():
        worst = _worst(0.0, *res)
        checks.append(CheckResult(name, worst, worst <= tol))
    return SymmetryReport(checks=tuple(checks), samples=samples, seed=seed, tol=tol)
