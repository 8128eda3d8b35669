"""Relative equilibria of scaling symmetries and central configurations.

For a Hamiltonian H carrying a scaling action with lift exponent c, a
phase point z is a relative equilibrium with multiplier xi exactly when the
one-form

    d H_xi + (c xi) theta = i_{X_H - xi_P} omega,        H_xi = H - xi J,

vanishes, that is where the Hamiltonian vector field X_H equals the lifted
generator xi_P.  With c = 0 this is the classical condition for a
symplectic action, such as a rotation.  ``relative_equilibrium_residual``
takes any (H, action) pair, as the scaling verifier does: it reads H only
through its ``ScalarField`` and the action only through
``generator_phase``.

For a simple mechanical system H = (1/2) p^T M^{-1} p + U(q) the condition
splits into the momentum condition p = M xi_Q(q) and the
central-configuration equation

    grad U(q) - (xi^2 / 2) grad I(q) + c xi M xi_Q(q) = 0,

where I(q) = xi_Q(q)|_1 . M xi_Q(q)|_1 is the (scalar) locked inertia and
U_xi = U - (xi^2 / 2) I is the augmented potential.  The solver has one
mode: it runs damped least squares for the unknowns (q, xi) on that
residual system, augmented with exact center-of-mass rows for
translation-invariant potentials and an inertia normalization row fixing
the scale; rotational degeneracy is left to minimum-norm steps.  It takes
(action, H) as a scaling symmetry and does not verify the pair; that is
``BuiltSystem.verify``'s job, or ``verify_scaling_symmetry``'s.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CollisionDetected, DimensionMismatch, NonFiniteValue, \
    SchemaError, SolverDidNotConverge
from .phase import PhasePoint, ScalarField, _conformal_field, _dot_rows, \
    _fd_stack_jacobian
from .scaling import (
    ScalingAction,
    generator_config,
    generator_config_jacobian,
    generator_phase,
    momentum_map,
)


@dataclass(frozen=True)
class SimpleMechanicalSystem:
    """Constant kinetic metric plus potential with analytic gradient.

    The potential is one kernel, ``potential_and_gradient(q)``, returning
    (U, grad U) from a single evaluation.  It takes one configuration or a
    (..., n) stack, and returns U as a float or a (...) array with the
    gradient's (n,) or (..., n) stack, each row that of the row alone.
    ``potential(q)`` and ``potential_gradient(q)`` read its two parts.
    ``alpha`` declares the homogeneity degree of U under uniform dilation
    when known.  ``masses``/``dim`` are set for point-particle systems whose
    configuration is bodies x dim flattened; they switch on the
    center-of-mass constraint in the solver.  ``hamiltonian_field()`` gives
    H = (1/2) p . M^{-1} p + U as a ScalarField on the same kernel.
    """

    mass_matrix: np.ndarray
    potential_and_gradient: Callable[[np.ndarray], tuple]
    alpha: float | None = None
    masses: np.ndarray | None = None
    dim: int | None = None
    name: str = "mechanical"
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

    def potential(self, q):
        """U at one configuration (a float) or row by row on a stack."""
        return self.potential_and_gradient(q)[0]

    def potential_gradient(self, q):
        """grad U at one configuration or row by row on a stack."""
        return self.potential_and_gradient(q)[1]

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

    def hamiltonian_field(self) -> ScalarField:
        def value(q, p):  # a float for one state, row by row for stacks
            p = np.asarray(p, dtype=float)
            return 0.5 * _dot_rows(p, self._inverse_mass(p)) + self.potential(q)

        def grad(q, p):
            return np.asarray(self.potential_gradient(q), float), self._inverse_mass(p)

        return ScalarField(value=value, grad=grad)


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


def augmented_hamiltonian(H: ScalarField, action: ScalingAction, xi: float,
                          z: PhasePoint) -> float:
    """H_xi = H - xi J at z.  For a simple mechanical system's
    ``hamiltonian_field()`` it equals K_xi + U_xi pointwise."""
    return H.value(z.q, z.p) - xi * momentum_map(action, z.q, z.p)


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


def relative_equilibrium_residual(H: ScalarField, action: ScalingAction,
                                  xi: float, z: PhasePoint) -> np.ndarray:
    """Omega^T (X_H - xi_P) at z, the coordinate stack of
    d H_xi + (c xi) theta = i_{X_H - xi_P} omega, length 2n.

    Rows 0..n-1 are the dq components dH/dq + (xi_P)_p, rows n..2n-1 the dp
    components (X_H)_q - xi_Q(q).  X_H is one ``H.grad`` call and xi_P is
    ``generator_phase``, so any (H, action) pair can be certified.  Zero
    exactly at relative equilibria with multiplier xi.
    """
    n = z.n
    defect = (_conformal_field(H, 0.0, z.flat())
              - np.concatenate(generator_phase(action, xi, z.q, z.p)))
    return np.concatenate((-defect[n:], defect[:n]))


def xi_squared_from_config(system: SimpleMechanicalSystem, q) -> float:
    """xi^2 = -2 U(q) / (q^T M q) for homogeneous potentials under uniform dilation."""
    if system.alpha is None:
        raise ValueError("system does not declare a homogeneity degree alpha")
    q = np.asarray(q, dtype=float)
    inertia = float(q @ system.mass_matrix @ q)
    if inertia <= 1e-300:
        raise ValueError("configuration has zero inertia")
    return -2.0 * float(system.potential(q)) / inertia


def _check_tolerance(tol: float, name: str = "tol"):
    """SchemaError unless tol is a finite number >= 0, the only kind a
    residual can be judged against."""
    if not 0 <= tol < np.inf:
        raise SchemaError(f"{name} must be finite and >= 0, got {tol}")


def certify_relative_equilibrium(system: SimpleMechanicalSystem,
                                 action: ScalingAction, q, xi: float, *,
                                 tol: float = 1e-10,
                                 iterations: int = 0) -> RelativeEquilibrium:
    """Build p = M xi_Q(q), evaluate both residuals (the full one on
    ``system.hamiltonian_field()``), and set the certified flag; a tolerance
    that is NaN, infinite or negative raises SchemaError."""
    _check_tolerance(tol)
    q = np.asarray(q, dtype=float)
    p = momentum_from_config(system, action, xi, q)
    z = PhasePoint(q, p)
    res_cc = float(np.max(np.abs(central_config_residual(system, action, xi, q))))
    res_full = float(np.max(np.abs(relative_equilibrium_residual(
        system.hamiltonian_field(), action, xi, z))))
    return RelativeEquilibrium(q=q, p=p, xi=float(xi), residual_cc=res_cc,
                               residual_full=res_full,
                               certified=res_full <= tol, tol=tol,
                               iterations=iterations)


def _solver_residual(system, action, q, xi, inertia_target):
    """The solver's residual at q, or row by row at a (..., n) stack of
    configurations, with xi a float or a (..., 1) column."""
    lead = q.shape[:-1]
    rows = [central_config_residual(system, action, xi, q)]
    if system.translation_invariant:
        rows.append(np.matmul(system.masses, q.reshape(lead + (-1, system.dim))))
    inertia = locked_inertia(system, action, q) - inertia_target
    rows.append(np.reshape(inertia, lead + (1,)))
    return np.concatenate(rows, axis=-1)


def solve_central_configuration(system: SimpleMechanicalSystem,
                                action: ScalingAction, q0, *,
                                inertia_target: float | None = None,
                                tol: float = 1e-10,
                                max_iter: int = 100) -> RelativeEquilibrium:
    """Find a certified relative equilibrium by damped least squares.

    Unknowns are (q, xi); the residual stacks the central-configuration
    equation, center-of-mass rows when the potential is translation
    invariant, and the normalization locked_inertia(q) = inertia_target
    (taken from q0 when not given).  The damped normal system is solved in
    minimum-norm form, so rotationally degenerate Jacobians need no
    explicit gauge fixing.  Converges basin-wise: the returned equilibrium
    is whichever central configuration q0 leads to, with xi reported as
    +sqrt(xi^2) (the expanding branch; -xi gives the contracting
    homothetic solution).

    The solver does not check that (action, H) is a scaling symmetry; that
    verdict comes from ``BuiltSystem.verify`` or ``verify_scaling_symmetry``.
    A tolerance that is NaN, infinite or negative, or a negative
    ``max_iter``, raises SchemaError.
    """
    _check_tolerance(tol)
    if max_iter < 0:
        raise SchemaError(f"max_iter must be >= 0, got {max_iter}")
    q = np.asarray(q0, dtype=float).copy()
    if inertia_target is None:
        inertia_target = locked_inertia(system, action, q)
    try:
        xi = float(np.sqrt(max(xi_squared_from_config(system, q), 0.0)))
    except ValueError:
        xi = 1.0
    if xi == 0.0:
        xi = 1.0

    def residual(x):  # one state x, or the Jacobian's stack of probes
        return _solver_residual(system, action, x[..., :-1], x[..., -1:],
                                inertia_target)

    x = np.append(q, xi)
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

    return certify_relative_equilibrium(system, action, x[:-1], x[-1],
                                        tol=tol, iterations=iteration)
