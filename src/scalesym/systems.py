"""Concrete model library and brute-force oracles.

Ships the Newtonian n-body problem (G = 1, masses carry all coupling),
the anisotropic Kepler problem, generic homogeneous potentials, and the
damped-oscillator benchmark.  ``make_system`` builds a system plus its
scaling action from a JSON-style dict: for homogeneous potentials under
the uniform dilation the Hamiltonian weight is b = alpha, the kinetic
weight is a = 2 (every constant metric scales by g^2), and the lift
exponent follows as c = (a + b) / 2 = (2 + alpha) / 2.  Building does not
certify: ``BuiltSystem.verify`` runs the scaling-symmetry verifier on the
pair and returns its report instead of raising, so only a caller that
reads the verdict pays for it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .equilibria import SimpleMechanicalSystem, central_config_residual, \
    xi_squared_from_config
from .errors import CollisionDetected, DimensionMismatch, SchemaError
from .phase import PhasePoint, ScalarField, _map_rows
from .scaling import ScalingAction, SymmetryReport, lift_exponent, \
    verify_scaling_symmetry


def _numbers(value, name: str) -> np.ndarray:
    """A spec value as a finite float array, or SchemaError."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{name} must be numeric") from None
    if not np.isfinite(x).all():
        raise SchemaError(f"{name} must be finite")
    return x


def _number(value, name: str) -> float:
    x = _numbers(value, name)
    if x.ndim != 0:
        raise SchemaError(f"{name} must be one number")
    return float(x)


def _count(value, name: str) -> int:
    x = _number(value, name)
    if x < 1 or x != int(x):
        raise SchemaError(f"{name} must be a positive integer")
    return int(x)


@dataclass(frozen=True)
class NBodySpec:
    """Masses and spatial dimension of a point-mass gravitational system.

    At least two finite positive masses and an integer dim >= 1; anything
    else raises SchemaError.
    """

    masses: tuple
    dim: int = 3

    def __post_init__(self):
        masses = _numbers(self.masses, "masses")
        if masses.ndim != 1 or len(masses) < 2:
            raise SchemaError("masses must be a list of at least two numbers")
        if np.any(masses <= 0):
            raise SchemaError("all masses must be positive")
        object.__setattr__(self, "masses", tuple(float(m) for m in masses))
        object.__setattr__(self, "dim", _count(self.dim, "dim"))

    @property
    def bodies(self) -> int:
        return len(self.masses)

    @property
    def n(self) -> int:
        return self.bodies * self.dim

    # Built once per spec and shared by every kernel call, so read-only.
    @cached_property
    def pairs(self) -> tuple:  # index arrays of the pairs i < j
        i, j = np.triu_indices(self.bodies, k=1)
        i.flags.writeable = j.flags.writeable = False
        return i, j

    @cached_property
    def mass_products(self) -> np.ndarray:  # m_i m_j, (bodies, bodies)
        masses = np.asarray(self.masses)
        mm = masses[:, None] * masses[None, :]
        mm.flags.writeable = False
        return mm


@dataclass(frozen=True)
class ConformalSystem:
    """A conformal Hamiltonian F with fixed parameter c (no scaling action)."""

    field: ScalarField
    c: float
    z0: np.ndarray | None = None
    name: str = "conformal"


@dataclass(frozen=True)
class BuiltSystem:
    """make_system output: the system, its action, and the sampler that
    draws the verifier's probes (None: the verifier's default probes)."""

    system: object
    action: ScalingAction | None
    probe: Callable | None

    def verify(self, samples: int = 32, seed: int = 0) -> SymmetryReport | None:
        """Certify (action, H) with ``verify_scaling_symmetry`` at tolerance
        1e-6; a failure is returned in the report, not raised.  None for a
        conformal benchmark, which declares no action."""
        if self.action is None:
            return None
        return verify_scaling_symmetry(self.action, self.system.hamiltonian_field(),
                                       samples=samples, seed=seed, probe=self.probe)


def _separations(spec: NBodySpec, q):
    """Pairwise differences q_i - q_j, shape (..., N, N, d), and their norms
    (..., N, N), for one configuration or a (..., n) stack of them."""
    q = np.asarray(q, dtype=float)
    pos = q.reshape(q.shape[:-1] + (spec.bodies, spec.dim))
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    dist = (diff ** 2).sum(axis=-1)
    return diff, np.sqrt(dist, out=dist)


def min_pairwise_distance(spec: NBodySpec, q) -> float:
    return float(_separations(spec, q)[1][spec.pairs].min())


def nbody_potential_and_gradient(spec: NBodySpec, q, *,
                                 collision_threshold: float = 1e-6):
    """U(q) = -sum_{i<j} m_i m_j / |q_i - q_j| and its analytic gradient.

    q may be one configuration (a float and an (n,) gradient come back) or
    a (..., n) stack (then a (...) array and a (..., n) stack).  The
    package's one collision check: raises CollisionDetected when a pairwise
    separation in any row is at or under ``collision_threshold``.
    """
    diff, dist = _separations(spec, q)
    i, j = spec.pairs
    mm = spec.mass_products
    pair_dist = np.ascontiguousarray(dist[..., i, j])  # rows sum as one row does
    collided = pair_dist <= collision_threshold  # NaN in one row hides no other row
    if collided.any():
        raise CollisionDetected(
            f"pairwise separation {pair_dist[collided].min():.3e} under threshold "
            f"{collision_threshold:.3e}")
    value = -(mm[i, j] / pair_dist).sum(axis=-1)
    diagonal = np.arange(spec.bodies)
    dist[..., diagonal, diagonal] = 1.0  # diagonal of diff is zero, so grad[i, i] = 0
    # In place, so a stacked call (the solver's probes, say) holds no third
    # (..., N, N, d) array; the values are those of the out-of-place form.
    weight = np.divide(mm, np.power(dist, 3, out=dist), out=dist)
    grad = np.multiply(weight[..., None], diff, out=diff).sum(axis=-2)
    grad = grad.reshape(np.shape(q))
    return (float(value) if value.ndim == 0 else value), grad


def nbody_mass_matrix(spec: NBodySpec) -> np.ndarray:
    return np.diag(np.repeat(spec.masses, spec.dim))


def nbody_system(spec: NBodySpec, *,
                 collision_threshold: float = 1e-6) -> SimpleMechanicalSystem:
    def potential(q):
        return nbody_potential_and_gradient(
            spec, q, collision_threshold=collision_threshold)[0]

    def gradient(q):
        return nbody_potential_and_gradient(
            spec, q, collision_threshold=collision_threshold)[1]

    return SimpleMechanicalSystem(
        mass_matrix=nbody_mass_matrix(spec), potential=potential,
        potential_gradient=gradient, alpha=-1.0,
        masses=np.asarray(spec.masses), dim=spec.dim, name="nbody")


def anisotropic_kepler_system(mu: float) -> SimpleMechanicalSystem:
    """U(q) = -(mu q_1^2 + q_2^2)^{-1/2}, one unit-mass body in the plane."""
    weights = np.array([mu, 1.0])

    def potential(q):
        return -1.0 / math.sqrt(float(weights @ (np.asarray(q) ** 2)))

    def gradient(q):  # a scalar Python pow per row keeps the bits of one row
        q = np.asarray(q, dtype=float)
        scale = _map_rows(lambda row: float(weights @ row ** 2) ** -1.5, q)
        return weights * q * np.expand_dims(scale, -1)

    return SimpleMechanicalSystem(
        mass_matrix=np.eye(2), potential=potential,
        potential_gradient=gradient, alpha=-1.0, name="anisotropic-kepler")


def homogeneous_system(potential, gradient, n: int, alpha: float, *,
                       mass_matrix=None,
                       name: str = "homogeneous") -> SimpleMechanicalSystem:
    """Wrap a homogeneous potential, checking U(g q) = g^alpha U(q) at 8
    seeded probes.

    ``potential`` and ``gradient`` take one configuration; the system maps
    ``gradient`` over the rows of a (..., n) stack.
    """
    rng = np.random.default_rng(0)
    for _ in range(8):
        q = rng.uniform(0.3, 1.2, size=n) * rng.choice([-1.0, 1.0], size=n)
        g = float(np.exp(rng.uniform(-0.5, 0.5)))
        u0, u1 = float(potential(q)), float(potential(g * q))
        if abs(u1 - g ** alpha * u0) > 1e-8 * max(1.0, abs(u1)):
            raise SchemaError(
                f"potential is not homogeneous of degree {alpha}: "
                f"U(gq)={u1:.6e} vs g^a U={g ** alpha * u0:.6e}")
    M = np.eye(n) if mass_matrix is None else np.asarray(mass_matrix, float)
    if M.shape != (n, n):
        raise DimensionMismatch(f"mass matrix shape {M.shape} != ({n}, {n})")
    return SimpleMechanicalSystem(
        mass_matrix=M, potential=potential,
        potential_gradient=lambda q: _map_rows(gradient, q), alpha=alpha,
        name=name)


def power_law_system(n: int, alpha: float, k: float = -1.0,
                     **kwargs) -> SimpleMechanicalSystem:
    """Radial power law U(q) = k |q|^alpha, the JSON-schema homogeneous family."""
    if alpha == 0:
        raise SchemaError("degree 0 gives a constant potential; nothing to solve")

    def potential(q):
        q = np.asarray(q, dtype=float)
        return k * float(q @ q) ** (alpha / 2.0)

    def gradient(q):
        q = np.asarray(q, dtype=float)
        return k * alpha * float(q @ q) ** (alpha / 2.0 - 1.0) * q

    kwargs.setdefault("name", f"power-law({alpha})")
    return homogeneous_system(potential, gradient, n, alpha, **kwargs)


def damped_oscillator(friction: float) -> ConformalSystem:
    """F = p^2/2 + q^2/2 as a conformal Hamiltonian with c = -friction.

    Its integral curves obey Newton's equation with linear drag,
    q'' = -friction q' - q.
    """

    def value(q, p) -> float:
        return 0.5 * float(p @ p) + 0.5 * float(q @ q)

    def grad(q, p):
        return q.copy(), p.copy()

    return ConformalSystem(field=ScalarField(value=value, grad=grad),
                           c=-friction, z0=np.array([1.0, 0.0]),
                           name="damped-oscillator")


def _nbody_probe(spec: NBodySpec):
    def probe(rng) -> PhasePoint:  # separations of at least 0.35
        for _ in range(200):
            q = rng.uniform(-1.25, 1.25, size=spec.n)
            if min_pairwise_distance(spec, q) >= 0.35:
                return PhasePoint(q, rng.uniform(-1.25, 1.25, size=spec.n))
        raise SchemaError("failed to draw a separated configuration")

    return probe


def _action_from_json(fragment: dict, n: int, *, default_b: float) -> ScalingAction:
    if not isinstance(fragment, dict):
        raise SchemaError("action must be a dict")
    if fragment.get("kind", "dilation") != "dilation":
        raise SchemaError(f"unknown action kind {fragment.get('kind')!r}")
    weights = fragment.get("weights")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.atleast_1d(_numbers(weights, "action weights"))
        if weights.size == 1:
            weights = np.full(n, float(weights[0]))
        elif len(weights) != n:
            raise SchemaError(f"action weights length {len(weights)} != n={n}")
    if "c" not in fragment:
        raise SchemaError("explicit action fragment needs the exponent c")
    return ScalingAction.dilation(weights, _number(fragment["c"], "action c"),
                                  _number(fragment.get("b", default_b), "action b"))


def make_system(spec_json: dict) -> BuiltSystem:
    """Construct (system, action) from a JSON-style dict, without verifying
    the pair (``BuiltSystem.verify`` does that).

    Schema: {"type": "nbody" | "homogeneous" | "anisotropic-kepler" |
    "damped-oscillator", "masses": [...], "dim": int, "alpha": real?,
    "mu": real?, "b": real?, "action": {...}?, "z0": [...]?}.  A value of
    the wrong type, a non-finite number or a non-integral count raises
    SchemaError.  Without an "action" the pair is the uniform dilation with
    b = alpha and c = (2 + alpha) / 2.
    """
    if not isinstance(spec_json, dict) or "type" not in spec_json:
        raise SchemaError("system spec must be a dict with a 'type' key")
    kind = spec_json["type"]
    z0 = spec_json.get("z0")
    if z0 is not None:
        z0 = _numbers(z0, "z0")

    if kind == "damped-oscillator":
        if "b" not in spec_json:
            raise SchemaError("damped-oscillator spec needs the friction 'b'")
        system = damped_oscillator(_number(spec_json["b"], "b"))
        if z0 is not None:
            system = ConformalSystem(field=system.field, c=system.c, z0=z0,
                                     name=system.name)
        return BuiltSystem(system=system, action=None, probe=None)

    if kind == "nbody":
        if "masses" not in spec_json:
            raise SchemaError("nbody spec needs 'masses'")
        spec = NBodySpec(masses=spec_json["masses"], dim=spec_json.get("dim", 3))
        system = nbody_system(spec, collision_threshold=_number(
            spec_json.get("collision_threshold", 1e-6), "collision_threshold"))
        probe = _nbody_probe(spec)
        alpha = -1.0
    elif kind == "anisotropic-kepler":
        system = anisotropic_kepler_system(_number(spec_json.get("mu", 2.0), "mu"))
        probe = None
        alpha = -1.0
    elif kind == "homogeneous":
        for key in ("alpha", "n"):
            if key not in spec_json:
                raise SchemaError(f"homogeneous spec needs '{key}'")
        alpha = _number(spec_json["alpha"], "alpha")
        n = _count(spec_json["n"], "n")
        mass_matrix = spec_json.get("mass_matrix")
        if mass_matrix is not None:
            mass_matrix = _numbers(mass_matrix, "mass_matrix")
        if "potential" in spec_json:  # Python API path: callables supplied directly
            system = homogeneous_system(
                spec_json["potential"], spec_json["gradient"], n, alpha,
                mass_matrix=mass_matrix)
        else:
            system = power_law_system(n, alpha,
                                      k=_number(spec_json.get("k", -1.0), "k"),
                                      mass_matrix=mass_matrix)
        probe = None
    else:
        raise SchemaError(f"unknown system type {kind!r}")

    if spec_json.get("action") is not None:
        action = _action_from_json(spec_json["action"], system.n, default_b=alpha)
    else:  # the uniform dilation scales every constant kinetic metric by g^2
        action = ScalingAction.uniform_dilation(
            system.n, lift_exponent(2.0, alpha), alpha)
    return BuiltSystem(system=system, action=action, probe=probe)


def lagrange_triangle(masses, side: float = 1.0) -> np.ndarray:
    """Equilateral triangle of the given side with weighted centroid at 0.

    A central configuration for any positive masses; returned flat in the
    plane (length 6).
    """
    if side <= 0:
        raise ValueError("side must be positive")
    m = np.asarray(masses, dtype=float)
    if m.shape != (3,) or np.any(m <= 0):
        raise ValueError("need three positive masses")
    verts = side * np.array([[0.0, 0.0],
                             [1.0, 0.0],
                             [0.5, math.sqrt(3.0) / 2.0]])
    verts -= (m @ verts) / m.sum()
    return verts.ravel()


def euler_collinear_oracle(masses) -> float:
    """Interior position ratio of the collinear central configuration.

    Bodies sit on a line at 0, x, 1 in the order given; the balance
    residual is the first component of the central-configuration equation
    (Kepler exponents, xi^2 eliminated through the homogeneity identity),
    which changes sign exactly once on (0, 1).  Bisection to a bracket of
    1e-12, not the shape-space solver, so the two can cross-validate each
    other.
    """
    m = np.asarray(masses, dtype=float)
    if m.shape != (3,) or np.any(m <= 0):
        raise ValueError("need three positive masses")
    spec = NBodySpec(masses=tuple(m), dim=1)
    system = nbody_system(spec, collision_threshold=1e-9)
    action = ScalingAction.uniform_dilation(3, 0.5, -1.0)

    def balance(x: float) -> float:
        y = np.array([0.0, x, 1.0])
        q = y - (m @ y) / m.sum()
        xi = math.sqrt(xi_squared_from_config(system, q))
        return float(central_config_residual(system, action, xi, q)[0])

    lo, hi = 1e-6, 1.0 - 1e-6
    f_lo, f_hi = balance(lo), balance(hi)
    if f_lo * f_hi > 0:
        raise RuntimeError("no sign change on (0, 1); cannot bracket the root")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = balance(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
