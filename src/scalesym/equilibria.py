"""Relative equilibria of scaling symmetries and central configurations.

For a simple mechanical system H = (1/2) p^T M^{-1} p + U(q) carrying a
scaling action with lift exponent c, a phase point is a relative
equilibrium with multiplier xi exactly when the one-form

    d H_xi + (c xi) theta,        H_xi = H - xi J,

vanishes.  In coordinates that splits into the momentum condition
p = M xi_Q(q) and the central-configuration equation

    grad U(q) - (xi^2 / 2) grad I(q) + c xi M xi_Q(q) = 0,

where I(q) = xi_Q(q)|_1 . M xi_Q(q)|_1 is the (scalar) locked inertia and
U_xi = U - (xi^2 / 2) I is the augmented potential.  The solver runs
damped least squares on that residual system, augmented with exact
center-of-mass rows for translation-invariant potentials and an inertia
normalization row fixing the scale; rotational degeneracy is left to
minimum-norm steps.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CollisionDetected, DimensionMismatch, NonFiniteValue, \
    SchemaError, SolverDidNotConverge, SymmetryVerificationFailed
from .phase import PhasePoint, ScalarField, _dot_rows, _fd_stack_jacobian
from .scaling import (
    ScalingAction,
    generator_config,
    generator_config_jacobian,
    verify_scaling_symmetry,
)


@dataclass(frozen=True)
class SimpleMechanicalSystem:
    """Constant kinetic metric plus potential with analytic gradient.

    The potential comes as ``potential`` and ``potential_gradient``, or as
    one ``potential_and_gradient(q)`` returning (U, grad U) from a single
    evaluation; the two separate callables then default to its parts, and
    ``hamiltonian_field`` evaluates it once where both H and its gradient
    are read, and once for H on a whole stack of states.  It takes one
    configuration or a (..., n) stack, and returns U as a float or a (...)
    array with the gradient's (n,) or (..., n) stack, each row that of the
    row alone.  ``alpha`` declares the homogeneity degree of U under uniform
    dilation when known.  ``masses``/``dim`` are set for point-particle
    systems whose configuration is bodies x dim flattened; they switch on
    the center-of-mass constraint in the solver.
    """

    mass_matrix: np.ndarray
    potential: Callable[[np.ndarray], float] | None = None
    potential_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    alpha: float | None = None
    masses: np.ndarray | None = None
    dim: int | None = None
    name: str = "mechanical"
    potential_and_gradient: Callable[[np.ndarray], tuple] | None = None
    # The diagonal of M when M is diagonal, else None; set from mass_matrix.
    _mass_diagonal: np.ndarray | None = field(default=None, init=False,
                                              repr=False, compare=False)

    def __post_init__(self):
        M = np.asarray(self.mass_matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"mass matrix must be square, got {M.shape}")
        if not np.allclose(M, M.T, atol=1e-12):
            raise SchemaError("mass matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(M) <= 0):
            raise SchemaError("mass matrix must be positive definite")
        object.__setattr__(self, "mass_matrix", M)
        diagonal = np.diagonal(M).copy()
        object.__setattr__(self, "_mass_diagonal",
                           diagonal if np.array_equal(M, np.diag(diagonal)) else None)
        if self.masses is not None:
            object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        both = self.potential_and_gradient
        if both is not None:
            if self.potential is None:
                object.__setattr__(self, "potential", lambda q: both(q)[0])
            if self.potential_gradient is None:
                object.__setattr__(self, "potential_gradient", lambda q: both(q)[1])
        elif self.potential is None or self.potential_gradient is None:
            raise SchemaError("need potential and potential_gradient, or "
                              "potential_and_gradient")

    @property
    def n(self) -> int:
        return self.mass_matrix.shape[0]

    @property
    def translation_invariant(self) -> bool:
        return self.masses is not None and self.dim is not None

    def _inverse_mass(self, p) -> np.ndarray:
        """M^{-1} p, row by row for a (..., n) stack of momenta.

        A diagonal M divides by its diagonal, which equals LAPACK's solve
        bit for bit (multiplying by 1/m does not); any other M is solved
        one right-hand side at a time, as for a single p.
        """
        p = np.asarray(p, dtype=float)
        if self._mass_diagonal is not None:
            return p / self._mass_diagonal
        return np.linalg.solve(self.mass_matrix, p[..., None])[..., 0]

    def kinetic(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return 0.5 * float(p @ self._inverse_mass(p))

    def hamiltonian(self, z: PhasePoint) -> float:
        return self._energy(z.q, z.p)

    def _energy(self, q, p) -> float:
        return self.kinetic(p) + float(self.potential(q))

    def hamiltonian_field(self) -> ScalarField:
        def grad(q, p):
            return (np.asarray(self.potential_gradient(q), dtype=float),
                    self._inverse_mass(p))

        if self.potential_and_gradient is None:
            return ScalarField(value=self._energy, grad=grad)

        def value_and_grad(q, p):  # _energy's expression, on one evaluation of U
            u, grad_u = self.potential_and_gradient(q)
            return (self.kinetic(p) + float(u),
                    (np.asarray(grad_u, dtype=float), self._inverse_mass(p)))

        def values(q, p):  # _energy's expression, row by row from one evaluation of U
            p = np.asarray(p, dtype=float)
            return (0.5 * _dot_rows(p, self._inverse_mass(p))
                    + self.potential_and_gradient(q)[0])

        return ScalarField(value=self._energy, grad=grad,
                           value_and_grad=value_and_grad, values=values)


@dataclass(frozen=True)
class RelativeEquilibrium:
    """A solved (q_e, p_e, xi) with residual norms and certification flag."""

    q: np.ndarray
    p: np.ndarray
    xi: float
    residual_cc: float
    residual_full: float
    certified: bool
    tol: float
    iterations: int = 0

    def phase_point(self) -> PhasePoint:
        return PhasePoint(self.q, self.p)

    def to_dict(self) -> dict:
        return {"q": list(map(float, self.q)), "p": list(map(float, self.p)),
                "xi": self.xi, "residual_cc": self.residual_cc,
                "residual_full": self.residual_full, "certified": self.certified,
                "tol": self.tol, "iterations": self.iterations}


def locked_inertia(system: SimpleMechanicalSystem, action: ScalingAction,
                   q) -> float:
    """Scalar locked inertia xi_Q(q)|_1 . M xi_Q(q)|_1 (q^T M q for uniform dilation).

    A (..., n) stack of configurations gives a (...) array, row for row
    equal to the float of each row alone.
    """
    s = generator_config(action, 1.0, q)
    inertia = (s[..., None, :] @ system.mass_matrix @ s[..., :, None])[..., 0, 0]
    return float(inertia) if inertia.ndim == 0 else inertia


def locked_inertia_gradient(system: SimpleMechanicalSystem,
                            action: ScalingAction, q) -> np.ndarray:
    """Analytic gradient 2 (D xi_Q)^T M xi_Q of the locked inertia at xi = 1,
    row by row for a (..., n) stack."""
    s = generator_config(action, 1.0, q)
    ds = generator_config_jacobian(action, 1.0, q)
    return (2.0 * np.swapaxes(ds, -1, -2) @ (system.mass_matrix @ s[..., None]))[..., 0]


def augmented_potential(system: SimpleMechanicalSystem, action: ScalingAction,
                        xi: float, q) -> float:
    """U_xi(q) = U(q) - (xi^2 / 2) * locked inertia."""
    return float(system.potential(q)) - 0.5 * xi ** 2 * locked_inertia(system, action, q)


def augmented_kinetic(system: SimpleMechanicalSystem, action: ScalingAction,
                      xi: float, z: PhasePoint) -> float:
    """K_xi(z) = (1/2) || p - M xi_Q(q) ||^2 in the M^{-1} metric."""
    diff = z.p - momentum_from_config(system, action, xi, z.q)
    return 0.5 * float(diff @ system._inverse_mass(diff))


def augmented_hamiltonian(system: SimpleMechanicalSystem, action: ScalingAction,
                          xi: float, z: PhasePoint) -> float:
    """H_xi = H - xi J; equals K_xi + U_xi pointwise."""
    J = float(z.p @ generator_config(action, 1.0, z.q))
    return system.hamiltonian(z) - xi * J


def momentum_from_config(system: SimpleMechanicalSystem, action: ScalingAction,
                         xi: float, q) -> np.ndarray:
    """Legendre transform of the generator: p = M xi_Q(q).

    Row by row for a (..., n) stack of configurations, with xi a float or a
    (..., 1) column.
    """
    return (system.mass_matrix @ generator_config(action, xi, q)[..., None])[..., 0]


def _squared(xi):
    """xi ** 2 with one scalar pow per entry, shaped like xi.

    numpy's array ** 2 is x * x, which differs from pow in the last bit for
    some xi, so a stack squared that way would not match its rows.
    """
    return np.reshape([v ** 2 for v in np.ravel(xi).tolist()], np.shape(xi))


def central_config_residual(system: SimpleMechanicalSystem,
                            action: ScalingAction, xi: float, q) -> np.ndarray:
    """grad U - (xi^2 / 2) grad I + c xi M xi_Q(q).

    For uniform dilation this reduces to grad U - (1 - c) xi^2 M q; its
    zeros are the central configurations with multiplier xi.  q may be a
    (..., n) stack and xi a float or a (..., 1) column; each row equals the
    residual of that row alone, bit for bit.
    """
    grad_u = np.asarray(system.potential_gradient(q), dtype=float)
    return (grad_u
            - 0.5 * _squared(xi) * locked_inertia_gradient(system, action, q)
            + action.c * xi * momentum_from_config(system, action, xi, q))


def relative_equilibrium_residual(system: SimpleMechanicalSystem,
                                  action: ScalingAction, xi: float,
                                  z: PhasePoint) -> np.ndarray:
    """Coordinate stack of d H_xi + (c xi) theta at z, length 2n.

    Rows 0..n-1 are the dq components (the central-configuration equation
    once the momentum condition holds), rows n..2n-1 the dp components
    M^{-1} p - xi_Q(q).  Zero exactly at relative equilibria with
    multiplier xi.
    """
    grad_u = np.asarray(system.potential_gradient(z.q), dtype=float)
    ds = generator_config_jacobian(action, xi, z.q)
    block_dq = grad_u - ds.T @ z.p + action.c * xi * z.p
    block_dp = system._inverse_mass(z.p) - generator_config(action, xi, z.q)
    return np.concatenate((block_dq, block_dp))


def xi_squared_from_config(system: SimpleMechanicalSystem, q) -> float:
    """xi^2 = -2 U(q) / (q^T M q) for homogeneous potentials under uniform dilation."""
    if system.alpha is None:
        raise ValueError("system does not declare a homogeneity degree alpha")
    q = np.asarray(q, dtype=float)
    inertia = float(q @ system.mass_matrix @ q)
    if inertia <= 1e-300:
        raise ValueError("configuration has zero inertia")
    return -2.0 * float(system.potential(q)) / inertia


def certify_relative_equilibrium(system: SimpleMechanicalSystem,
                                 action: ScalingAction, q, xi: float, *,
                                 tol: float = 1e-10,
                                 iterations: int = 0) -> RelativeEquilibrium:
    """Build p = M xi_Q(q), evaluate both residuals, and set the certified flag."""
    q = np.asarray(q, dtype=float)
    p = momentum_from_config(system, action, xi, q)
    z = PhasePoint(q, p)
    res_cc = float(np.max(np.abs(central_config_residual(system, action, xi, q))))
    res_full = float(np.max(np.abs(
        relative_equilibrium_residual(system, action, xi, z))))
    return RelativeEquilibrium(q=q, p=p, xi=float(xi), residual_cc=res_cc,
                               residual_full=res_full,
                               certified=res_full <= tol, tol=tol,
                               iterations=iterations)


def _solver_residual(system, action, q, xi, inertia_target, fix_xi):
    """The solver's residual at q, or row by row at a (..., n) stack of
    configurations, with xi a float or a (..., 1) column."""
    lead = q.shape[:-1]
    rows = [central_config_residual(system, action, xi, q)]
    if system.translation_invariant:
        rows.append(np.matmul(system.masses, q.reshape(lead + (-1, system.dim))))
    if fix_xi is None:
        inertia = locked_inertia(system, action, q) - inertia_target
        rows.append(np.reshape(inertia, lead + (1,)))
    return np.concatenate(rows, axis=-1)


def solve_central_configuration(system: SimpleMechanicalSystem,
                                action: ScalingAction, q0, *,
                                inertia_target: float | None = None,
                                fix_xi: float | None = None,
                                tol: float = 1e-10,
                                max_iter: int = 100,
                                verify_symmetry: bool = True) -> RelativeEquilibrium:
    """Find a certified relative equilibrium by damped least squares.

    Unknowns are (q, xi); the residual stacks the central-configuration
    equation, center-of-mass rows when the potential is translation
    invariant, and the normalization locked_inertia(q) = inertia_target
    (taken from q0 when not given).  ``fix_xi`` switches to the alternative
    mode that freezes xi and lets the scale float.  The damped normal
    system is solved in minimum-norm form, so rotationally degenerate
    Jacobians need no explicit gauge fixing.  Converges basin-wise: the
    returned equilibrium is whichever central configuration q0 leads to,
    with xi reported as +sqrt(xi^2) (the expanding branch; -xi gives the
    contracting homothetic solution).
    """
    q = np.asarray(q0, dtype=float).copy()
    if verify_symmetry:
        report = verify_scaling_symmetry(action, system.hamiltonian_field(),
                                         samples=8, seed=0)
        if not report.passed:
            raise SymmetryVerificationFailed(
                "(action, H) failed scaling-symmetry verification; "
                f"worst residual {report.max_residual:.3e}", report=report)

    if inertia_target is None:
        inertia_target = locked_inertia(system, action, q)
    if fix_xi is not None:
        xi = float(fix_xi)
    else:
        try:
            xi = float(np.sqrt(max(xi_squared_from_config(system, q), 0.0)))
        except ValueError:
            xi = 1.0
        if xi == 0.0:
            xi = 1.0

    def residual(x):  # one state x, or the Jacobian's stack of probes
        if fix_xi is None:
            return _solver_residual(system, action, x[..., :-1], x[..., -1:],
                                    inertia_target, None)
        return _solver_residual(system, action, x, xi, inertia_target, fix_xi)

    x = np.append(q, xi) if fix_xi is None else q
    r = residual(x)
    lam = 1e-3
    iteration = 0
    while np.max(np.abs(r)) > tol:
        if iteration == max_iter:
            raise SolverDidNotConverge(
                f"no convergence within {max_iter} iterations",
                diagnostics={"residual": float(np.max(np.abs(r))),
                             "iterations": max_iter})
        iteration += 1
        jac = _fd_stack_jacobian(residual, x)
        accepted = False
        while not accepted:
            # Minimum-norm solution of the damped least-squares step.
            aug = np.vstack((jac, np.sqrt(lam) * np.eye(len(x))))
            rhs = np.concatenate((-r, np.zeros(len(x))))
            delta = np.linalg.lstsq(aug, rhs, rcond=None)[0]
            x_new = x + delta
            try:
                r_new = residual(x_new)
            except (NonFiniteValue, CollisionDetected, FloatingPointError):
                r_new = None  # reject the trial step, raise the damping
            if r_new is not None and np.isfinite(r_new).all() \
                    and np.linalg.norm(r_new) < np.linalg.norm(r):
                x, r = x_new, r_new
                lam = max(lam / 10.0, 1e-14)
                accepted = True
            else:
                lam *= 10.0
                if lam > 1e14:
                    raise SolverDidNotConverge(
                        "damping overflow before reaching tolerance",
                        diagnostics={"residual": float(np.max(np.abs(r))),
                                     "iterations": iteration})

    q_sol = x[:-1] if fix_xi is None else x
    xi_sol = x[-1] if fix_xi is None else xi
    return certify_relative_equilibrium(system, action, q_sol, xi_sol,
                                        tol=tol, iterations=iteration)
