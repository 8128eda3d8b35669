"""Span tracing of scalesym from the benchmark's side.

``Tracer.install()`` replaces every public function of the layer modules
(``systems``, ``scaling``, ``dynamics``, ``equilibria``, ``phase``) with a
wrapper that records a span, in every module namespace that holds the
name: ``verify_scaling_symmetry`` is looked up through ``systems`` and
``equilibria``, ``integrate`` through ``dynamics`` and ``cli``.  Two class
hooks add counters: validated ``PhasePoint`` constructions, and gradient
calls of the fields that ``hamiltonian_field()`` and ``damped_oscillator``
return (one per RHS evaluation).

A span is (id, parent, op, name, start, end).  Spans stay in memory, in
flat arrays, until ``write`` saves them.  Each span's self time, its
duration minus the time its children cover, is folded into per-name
totals as the span ends; ``layer_metrics`` turns the totals into per-op
figures.
"""

import collections
import functools
import inspect
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("systems", "scaling", "dynamics", "equilibria", "phase")

# Span names of the functions the per-layer metrics single out.
KERNEL = "systems.nbody_potential_and_gradient"
MAKE_SYSTEM = "systems.make_system"
VERIFY = "scaling.verify_scaling_symmetry"
ACT_PHASE = "scaling.act_phase"
PHASE_JAC = "scaling.phase_jacobian_fd"
INTEGRATE = "dynamics.integrate"
FLOW_JAC = "dynamics.flow_jacobian"
HOMOTHETIC = "dynamics.verify_homothetic_orbit"
SOLVE = "equilibria.solve_central_configuration"
RESIDUAL = "equilibria.central_config_residual"
CERTIFY = "equilibria.certify_relative_equilibrium"
MAIN = "cli.main"
# Spans nested in one of these are also counted against the nearest one.
HOSTS = (INTEGRATE, FLOW_JAC, SOLVE)
COLUMNS = (("id", "q"), ("parent", "q"), ("op", "q"), ("name", "l"),
           ("start", "d"), ("end", "d"))


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = -1                      # id of the op being run, -1 between ops
        self.names = []                   # span name table
        self.columns = {col: array(code) for col, code in COLUMNS}
        self.calls = collections.Counter()
        self.total = collections.Counter()      # summed durations per name
        self.own = collections.Counter()        # summed self times per name
        self.nested = collections.Counter()     # (host name, name) -> spans
        self.counts = collections.Counter()
        self.seconds = collections.Counter()
        self.steps = {}                   # integrate span id -> RK4 steps taken
        self.kernel_hosts = set()         # integrate span ids that called the kernel
        self._stack = []                  # frames: [id, children's time, host]
        self._next_id = 0
        self._undo = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        """Return fn recording a span per call; observe(sid, args, kwargs,
        result, error) runs after each call."""
        code = len(self.names)
        self.names.append(name)
        clock, stack = self.clock, self._stack
        appends = [self.columns[col].append for col, _ in COLUMNS]
        is_host = name in HOSTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            host = parent[2] if parent is not None else None
            frame = [sid, 0.0, (sid, name) if is_host else host]
            stack.append(frame)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                row = (sid, -1 if parent is None else parent[0], self.op, code,
                       start, end)
                for append, value in zip(appends, row):
                    append(value)
                self.calls[name] += 1
                self.total[name] += duration
                self.own[name] += duration - frame[1]
                if host is not None:
                    self.nested[host[1], name] += 1
                    if name == KERNEL and host[1] == INTEGRATE:
                        self.kernel_hosts.add(host[0])
                if observe is not None:
                    observe(sid, args, kwargs, result, error)

        return traced

    def _count(self, name, fn):
        clock, counts, seconds = self.clock, self.counts, self.seconds

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name] += 1
                seconds[name] += clock() - start

        return counted

    # -- observers for counts the spans do not carry ---------------------------

    def _observers(self, modules):
        counts, steps_of = self.counts, self.steps
        verify_sig = inspect.signature(modules["scaling"].verify_scaling_symmetry)
        no_convergence = modules["errors"].SolverDidNotConverge

        def probes(sid, args, kwargs, result, error):
            bound = verify_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts["scaling.verify.probes"] += bound.arguments["samples"]

        def steps(sid, args, kwargs, result, error):
            if result is not None:
                steps_of[sid] = len(result) - 1

        def solve(sid, args, kwargs, result, error):
            if result is not None:
                counts["equilibria.solve.converged"] += 1
                counts["equilibria.solve.iterations"] += result.iterations
            elif isinstance(error, no_convergence):
                counts["equilibria.solve.iterations"] += error.diagnostics["iterations"]

        return {VERIFY: probes, INTEGRATE: steps, SOLVE: solve}

    # -- installation -----------------------------------------------------------

    def install(self, package):
        """Patch the package's layer modules; ``uninstall`` undoes it."""
        modules = {name: getattr(package, name)
                   for name in LAYERS + ("cli", "errors")}
        observers = self._observers(modules)
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = self.wrap(name, fn, observers.get(name))
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])

        phase_point = modules["phase"].PhasePoint
        self._patch(phase_point, "__post_init__",
                    self._count("phase.PhasePoint", phase_point.__post_init__))
        self._count_rhs(modules)

    def _count_rhs(self, modules):
        scalar_field = modules["phase"].ScalarField

        def counted_field(field):
            return scalar_field(value=field.value,
                                grad=self._count("dynamics.rhs", field.grad))

        mech = modules["equilibria"].SimpleMechanicalSystem
        original_field = mech.hamiltonian_field

        def hamiltonian_field(system):
            return counted_field(original_field(system))

        self._patch(mech, "hamiltonian_field", hamiltonian_field)

        systems = modules["systems"]
        make_damped = systems.damped_oscillator  # already a span wrapper

        def damped_oscillator(friction):
            system = make_damped(friction)
            return type(system)(field=counted_field(system.field), c=system.c,
                                z0=system.z0, name=system.name)

        self._patch(systems, "damped_oscillator", damped_oscillator)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------------

    def write(self, path: Path):
        """Save the spans as a compressed .npz: one array per column, plus
        ``names`` (parent -1 marks a root; ``name`` indexes ``names``)."""
        np.savez_compressed(path, names=np.array(self.names),
                            **{col: np.frombuffer(a, dtype=a.typecode)
                               for col, a in self.columns.items()})


def layer_metrics(tracer: Tracer, ops: int, artifact_bytes: int) -> dict:
    """Per-op layer figures, as (value, unit), from ``ops`` traced ops."""
    t, c = tracer, tracer.counts
    steps = sum(t.steps.values())
    kernel_steps = sum(t.steps.get(sid, 0) for sid in t.kernel_hosts)
    iterations = c["equilibria.solve.iterations"]
    residuals = t.nested[SOLVE, RESIDUAL]
    layer_self = collections.Counter()
    for name, own in t.own.items():
        layer_self[name.split(".", 1)[0]] += own

    def per_op(x):
        return x / max(ops, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    S, N, R = "s/op", "count/op", "ratio"
    metrics = {
        "systems.make_system.s": (per_op(t.total[MAKE_SYSTEM]), S),
        "systems.make_system.self_s": (per_op(t.own[MAKE_SYSTEM]), S),
        "systems.kernel.calls": (per_op(t.calls[KERNEL]), N),
        "systems.kernel.s": (per_op(t.total[KERNEL]), S),
        "systems.kernel.calls_per_step": (ratio(t.nested[INTEGRATE, KERNEL],
                                                kernel_steps), R),
        "phase.PhasePoint.count": (per_op(c["phase.PhasePoint"]), N),
        "phase.PhasePoint.s": (per_op(t.seconds["phase.PhasePoint"]), S),
        "scaling.verify.s": (per_op(t.total[VERIFY]), S),
        "scaling.verify.probes": (per_op(c["scaling.verify.probes"]), N),
        "scaling.act_phase.calls": (per_op(t.calls[ACT_PHASE]), N),
        "scaling.phase_jacobian_fd.s": (per_op(t.total[PHASE_JAC]), S),
        "dynamics.integrate.calls": (per_op(t.calls[INTEGRATE]), N),
        "dynamics.integrate.s": (per_op(t.total[INTEGRATE]), S),
        "dynamics.rk4_steps": (per_op(steps), N),
        "dynamics.s_per_step": (ratio(t.total[INTEGRATE], steps), "s"),
        "dynamics.rhs_evals": (per_op(c["dynamics.rhs"]), N),
        "dynamics.flow_jacobian.s": (per_op(t.total[FLOW_JAC]), S),
        "dynamics.flow_jacobian.integrations": (per_op(t.nested[FLOW_JAC, INTEGRATE]),
                                                N),
        "dynamics.verify_homothetic_orbit.self_s": (per_op(t.own[HOMOTHETIC]), S),
        "equilibria.solve.s": (per_op(t.total[SOLVE]), S),
        "equilibria.solve.iterations": (per_op(iterations), N),
        "equilibria.residual_evals": (per_op(residuals), N),
        "equilibria.residual_evals_per_iter": (ratio(residuals, iterations), R),
        "equilibria.solve.converged_ratio": (ratio(c["equilibria.solve.converged"],
                                                   t.calls[SOLVE]), R),
        "equilibria.certify.s": (per_op(t.total[CERTIFY]), S),
        "cli.main.s": (per_op(t.total[MAIN]), S),
        "cli.main.self_s": (per_op(t.own[MAIN]), S),
        "cli.artifact_bytes": (per_op(artifact_bytes), "B/op"),
    }
    for layer in ("cli",) + LAYERS:
        metrics[f"layer.{layer}.self_share"] = (ratio(layer_self[layer], t.total[MAIN]), R)
    return metrics
