"""Time integration of conformal Hamiltonian systems and flow certification.

The integrator is classical fixed-step RK4 on the conformal vector field

    q' = dF/dp,    p' = -dF/dq + c p,

evaluated by ``phase._conformal_field`` at every node and stage.

Fixed stepping keeps the time-t flow map a smooth function of the initial
state, so its Jacobian can be taken by central differences and tested
against the structural identities

    A^T Omega A = e^{ct} Omega,      det A = e^{nct},

and the energy-rate law dF/dt = c * theta(X_F^c) = c * p . dF/dp.
``verify_conformal_flow`` certifies a trajectory that ``integrate``
returned: A is taken at its first row and the energy rate read along it,
so the CLI's flow and Noether checks share one integration.

``integrate``, ``flow_jacobian`` and ``verify_homothetic_orbit`` share one
RK4 loop on flat states y = (q, p); the homothetic check stores only its
nodes.  The loop is written on the last axis, so it advances a
(B, 2n) stack of states as readily as one state: ``flow_jacobian`` is the
package's one finite-difference core applied to that loop, so the 4n
central-difference probes of z0 are integrated together, with one gradient
call per RK4 stage for the whole stack.
Fields compute each row as if it came alone (the ``ScalarField``
contract), so the stacked flow equals the row-by-row one bit for bit.

Each RK4 step calls ``F.grad`` four times: once at its starting node and
once at each of its three later stages.  ``integrate`` also reads X at the
final node for its diagnostics, 4m + 1 calls for m steps, where
``flow_jacobian`` makes 4m.  After the loop, ``integrate`` reads the
trajectory's H by ``F.value`` on blocks of stored nodes, one call per
block.  For the n-body Hamiltonian each call is one kernel call.

Each trajectory carries per-step diagnostics: the conformal Hamiltonian H,
the momentum J (the action's ``momentum_map``, or p . q without one),
K = theta(X)/2 (the kinetic energy for simple mechanical systems), and the
running trapezoid quadrature of theta(X), which feeds the generalized
Noether constant

    F = J + b H t - c * int_0^t theta(X_H) dt.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BlowupWindow, DimensionMismatch, NonFiniteValue, SchemaError, \
    UncertifiedInput
from .phase import PhasePoint, ScalarField, _conformal_field, _dot_rows, \
    _fd_stack_jacobian, omega_matrix
from .scaling import ScalingAction, act_phase, momentum_map


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped phase points with per-step diagnostics.

    All rows share one uniform step.  ``momentum`` is the action's J when
    one was supplied to ``integrate``, else the uniform-dilation momentum
    p . q (so the column is always total).
    """

    times: np.ndarray          # (m+1,)
    qs: np.ndarray             # (m+1, n)
    ps: np.ndarray             # (m+1, n)
    energy: np.ndarray         # H(z_k)
    momentum: np.ndarray       # J(z_k)
    kinetic: np.ndarray        # theta(X)/2 at z_k
    int_theta: np.ndarray      # trapezoid of theta(X) on [0, t_k]

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for name in ("times", "qs", "ps", "energy", "momentum", "kinetic",
                     "int_theta"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise NonFiniteValue(f"trajectory field {name} has non-finite entries")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n(self) -> int:
        return self.qs.shape[1]

    def state(self, k: int) -> PhasePoint:
        return PhasePoint(self.qs[k], self.ps[k])

    @property
    def final_state(self) -> PhasePoint:
        return self.state(len(self) - 1)


@dataclass(frozen=True)
class FlowReport:
    """Defects of the flow-level identities, with the settings that produced them."""

    t: float
    dt: float
    conformal_defect: float | None = None   # max |A^T Omega A - e^{ct} Omega|
    volume_defect: float | None = None      # |det A - e^{nct}|
    energy_rate_defect: float | None = None # max |dF/dt - c theta(X)|
    noether_drift: float | None = None      # max |F(t_k) - F(0)|
    homothetic_deviation: float | None = None
    tolerance: float | None = None          # the bound the caller judged against

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value is not None and not np.isfinite(value):
                raise NonFiniteValue(f"flow report field {name} is not finite")

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def _step_count(t_final: float, dt: float) -> int:
    if not (dt > 0 and 0 <= t_final / dt < np.inf):
        raise SchemaError("need dt > 0, t_final >= 0 and a finite t_final/dt")
    m = round(t_final / dt)
    if abs(m * dt - t_final) > 1e-9 * max(dt, t_final):
        raise SchemaError(f"t_final={t_final} is not a multiple of dt={dt}")
    return m


def _rk4(F: ScalarField, c: float, y: np.ndarray, m: int, dt: float,
         node: Callable | None = None) -> np.ndarray:
    """m RK4 steps of dt from the flat state y = (q, p), or from a (B, 2n)
    stack of them, returning the last one.

    Each node is checked for finiteness.  X is ``_conformal_field``, one
    ``F.grad`` call, at each node and stage.  With a node callback,
    node(k, y, X(y)) sees every node: 4m + 1 calls.  Without one, the final
    node, which no step needs, is not evaluated: 4m calls.  F.grad must
    return arrays shaped like its arguments; a field written for one state
    that drops the stack axis raises DimensionMismatch."""
    for k in range(m + 1):
        if k:
            k2 = _conformal_field(F, c, y + 0.5 * dt * ydot)
            k3 = _conformal_field(F, c, y + 0.5 * dt * k2)
            k4 = _conformal_field(F, c, y + dt * k3)
            y = y + (dt / 6.0) * (ydot + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(y).all():
            raise NonFiniteValue(f"state became non-finite at t={k * dt}")
        if node is not None or k < m:
            ydot = _conformal_field(F, c, y)
        if node is not None:
            node(k, y, ydot)
    return y


def integrate(F: ScalarField, c: float, z0: PhasePoint, t_final: float,
              dt: float, *, action: ScalingAction | None = None) -> Trajectory:
    """Integrate the conformal vector field of F with classical RK4.

    Each node's and stage's X comes from one ``F.grad`` call, which may
    raise to abort the run (the n-body kernel raises CollisionDetected
    inside its threshold).  H is read after the loop by ``F.value`` on
    blocks of 128 stored nodes; each block must give one value per row,
    else DimensionMismatch.  J is the action's momentum map of each row, or
    p . q without an action.
    """
    m = _step_count(t_final, dt)
    n = z0.n

    qs = np.empty((m + 1, n))
    ps = np.empty((m + 1, n))
    energy = np.empty(m + 1)
    theta_rate = np.empty(m + 1)

    def record(k: int, y: np.ndarray, ydot: np.ndarray):
        # theta(X) = p . dF/dp and dq/dt = dF/dp, so reuse the node's X eval.
        q, p = y[:n], y[n:]
        qs[k], ps[k] = q, p
        theta_rate[k] = float(p @ ydot[:n])

    _rk4(F, c, z0.flat(), m, dt, record)
    # Blocks of 128 rows: bounded temporaries for a large field's kernel.
    for k in range(0, m + 1, 128):
        rows = slice(k, k + 128)
        h = F.value(qs[rows], ps[rows])
        if np.shape(h) != energy[rows].shape:
            raise DimensionMismatch(f"value returned shape {np.shape(h)} for a stack")
        energy[rows] = h
    momentum = momentum_map(action, qs, ps) if action is not None else _dot_rows(ps, qs)
    trapezoids = 0.5 * dt * (theta_rate[:-1] + theta_rate[1:])
    return Trajectory(times=np.arange(m + 1) * dt, qs=qs, ps=ps, energy=energy,
                      momentum=momentum, kinetic=theta_rate / 2.0,
                      int_theta=np.concatenate(([0.0], np.cumsum(trapezoids))))


def flow_jacobian(F: ScalarField, c: float, z0: PhasePoint, t: float,
                  dt: float) -> np.ndarray:
    """Central-difference Jacobian of the time-t flow map at z0 (2n x 2n).

    The 4n probes of z0 advance as one (4n, 2n) stack, so F.grad is called
    4m times for m steps, each time on the whole stack.  A non-finite state
    in any probe aborts the whole Jacobian, and so does a collision at any
    RK4 stage.  F is not evaluated at the probes' final states, so a probe
    that first comes inside the collision threshold there is not caught.
    """
    m = _step_count(t, dt)
    return _fd_stack_jacobian(lambda probes: _rk4(F, c, probes, m, dt), z0.flat())


def verify_conformal_flow(F: ScalarField, c: float, traj: Trajectory, t: float,
                          dt: float) -> FlowReport:
    """Certify conformality, volume scaling, and the energy-rate law at time t
    along a trajectory that ``integrate(F, c, z0, t, dt)`` returned.

    The flow Jacobian A at the trajectory's first row is taken by finite
    differences; the report carries

        max |A^T Omega A - e^{ct} Omega|,   |det A - e^{nct}|,

    (n the configuration dimension) and the max pointwise defect of
    dF/dt - c theta(X) along the trajectory.  A trajectory without the
    m + 1 rows of m = t/dt >= 1 steps is rejected.
    """
    m = _step_count(t, dt)
    if m < 1:
        raise SchemaError("the flow check needs a window of at least one step")
    if len(traj) != m + 1:
        raise DimensionMismatch(
            f"trajectory has {len(traj)} rows; t={t}, dt={dt} needs {m + 1}")
    n = traj.n
    A = flow_jacobian(F, c, traj.state(0), t, dt)
    omega = omega_matrix(n)
    factor = float(np.exp(c * t))
    conformal = float(np.max(np.abs(A.T @ omega @ A - factor * omega)))
    volume = float(abs(np.linalg.det(A) - np.exp(n * c * t)))

    dF_dt = np.gradient(traj.energy, traj.times)
    rate = c * 2.0 * traj.kinetic
    # np.gradient is first-order at the ends; compare interior nodes only.
    energy_rate = float(np.max(np.abs(dF_dt[1:-1] - rate[1:-1]))) if len(traj) > 2 \
        else float(np.max(np.abs(dF_dt - rate)))

    return FlowReport(t=t, dt=dt, conformal_defect=conformal,
                      volume_defect=volume, energy_rate_defect=energy_rate)


class NoetherSeries(NamedTuple):
    values: np.ndarray
    drift: float


def noether_series(action: ScalingAction, traj: Trajectory) -> NoetherSeries:
    """The conserved combination F = J + b H t - c int theta(X_H) dt along a
    Hamiltonian (c = 0) trajectory, and its max drift from F(0).
    """
    J = momentum_map(action, traj.qs, traj.ps)
    F = J + action.b * traj.energy * traj.times - action.c * traj.int_theta
    return NoetherSeries(values=F, drift=float(np.max(np.abs(F - F[0]))))


def homothetic_factor(action: ScalingAction, xi: float, t) -> np.ndarray:
    """Group trajectory eta(t) of a relative equilibrium.

    eta(t) = [(c - b) xi t + 1]^{1/(c-b)} for b != c, e^{xi t} for b = c.
    Raises BlowupWindow when the window reaches the root of the bracket.
    """
    t = np.asarray(t, dtype=float)
    c, b = action.c, action.b
    if np.isclose(b, c):
        return np.exp(xi * t)
    base = (c - b) * xi * t + 1.0
    if np.any(base <= 0.0):
        t_star = 1.0 / ((b - c) * xi)
        raise BlowupWindow(
            f"window reaches the homothetic blow-up time t* = {t_star:.6g}")
    return base ** (1.0 / (c - b))


def verify_homothetic_orbit(H: ScalarField, action: ScalingAction, re,
                            t_final: float, dt: float) -> FlowReport:
    """Compare the Hamiltonian trajectory from a certified relative
    equilibrium with its group orbit Phi_{eta(t)}(z_e).

    Reports the max over the RK4 nodes of the relative deviation
    ||z_num(t) - Phi_{eta(t)} z_e|| / max(1, ||Phi_{eta(t)} z_e||).  The
    RK4 loop stores only the nodes: no H, J, K or quadrature of theta is
    read, as no deviation needs them.
    """
    if not re.certified:
        raise UncertifiedInput("relative equilibrium is not certified")
    z_e = PhasePoint(re.q, re.p)
    if z_e.n != action.n:
        raise DimensionMismatch("equilibrium dimension does not match action")
    # Reject a window that reaches the blow-up time before integrating.
    homothetic_factor(action, re.xi, np.array([0.0, t_final]))

    m = _step_count(t_final, dt)
    nodes = np.empty((m + 1, 2 * z_e.n))

    def store(k, y, ydot):
        nodes[k] = y

    _rk4(H, 0.0, z_e.flat(), m, dt, store)
    eta = homothetic_factor(action, re.xi, np.arange(m + 1) * dt)
    worst = 0.0
    # Blocks of 128 rows: a few (128, 2n) temporaries, not whole-trajectory ones.
    for k in range(0, m + 1, 128):
        rows = slice(k, k + 128)
        ref = np.concatenate(act_phase(action, eta[rows, None], z_e.q, z_e.p), axis=-1)
        diff = nodes[rows] - ref
        # Row norms as np.linalg.norm takes one vector's: sqrt of its BLAS dot.
        scale = np.maximum(1.0, np.sqrt(_dot_rows(ref, ref)))
        dev = np.sqrt(_dot_rows(diff, diff)) / scale
        worst = max(worst, float(np.max(dev)))
    return FlowReport(t=t_final, dt=dt, homothetic_deviation=worst)
