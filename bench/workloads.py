"""Seeded workloads for the scalesym benchmark.

Every op is one call of ``scalesym.cli.main(argv)``.  Each workload is a
list of op templates; each template has a pool of variants whose
inputs (spec JSON, start CSV, random-start seed) depend only on the
template name and the variant index.  The workload seed picks which
variants make up a round, so the same seed gives the same files, and every
artifact an op can write has a reference digest in ``reference.json``
(see ``record_digests.py``).  A run repeats its round, so every run of a
workload has the same op mix and the same failures.

Paths handed to the CLI are relative to the work directory, because the
artifacts embed them.
"""

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POOL = 16                   # default variants per template
SOLVE_TOL = 1e-10           # solve-cc --tol (the CLI default), also the gate
HOMOTHETIC_MAX_DEV = 1e-8   # gate on homothetic_deviation
ORBIT_ARGS = ("--dt", "0.001", "--t-final", "1.0")
ORBIT_STEPS = 1000
EXIT_OK, EXIT_NO_CONVERGENCE = 0, 2


@dataclass(frozen=True)
class Variant:
    """Inputs of one pool item, as data: the files are written by ``materialize``."""

    spec: dict
    init: np.ndarray | None = None     # --init row (q, or q then p)
    args: tuple = ()                   # further CLI arguments
    steps: int | None = None           # RK4 steps of an integrate op


@dataclass(frozen=True)
class Template:
    name: str
    command: str                       # solve-cc | integrate | homothetic | verify
    per_round: int                     # ops of this template in one round
    make: Callable[[np.random.Generator, int], Variant]
    pool: int = POOL                   # variants to draw the round's ops from


@dataclass(frozen=True)
class Op:
    key: str                           # "<template>.<variant>", names its files
    command: str
    argv: tuple
    out: str
    steps: int | None = None
    setup_argv: tuple | None = None    # solve-cc run at set-up (homothetic input)


@dataclass(frozen=True)
class Workload:
    name: str
    templates: tuple
    warmup: str                        # template whose op is run once at set-up


def _rng(*keys) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(str(k).encode()) for k in keys])


# --- geometry of known central configurations ---------------------------

def _plane(rng, dim):
    """Orthonormal 2-frame spanning a random plane of R^dim."""
    if dim == 2:
        a = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    return basis.T


def _centered(pos, masses):
    return pos - (np.asarray(masses) @ pos) / np.sum(masses)


def _ring(k, radius, frame, center=False):
    ang = 2.0 * math.pi * np.arange(k) / k
    pts = radius * (np.cos(ang)[:, None] * frame[0] + np.sin(ang)[:, None] * frame[1])
    if center:
        pts = np.vstack((np.zeros(frame.shape[1]), pts))
    return pts


def _jitter(rng, pos, scale=0.02):
    return pos + scale * rng.uniform(-1.0, 1.0, size=pos.shape)


def _lagrange(rng, masses, side):
    frame = _plane(rng, 2)
    tri = side * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    return _centered(tri @ frame, masses)


def _separated(rng, bodies, dim, half_width, min_sep):
    for _ in range(10000):
        pos = rng.uniform(-half_width, half_width, size=(bodies, dim))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2)) + np.eye(bodies) * 1e9
        if dist.min() > min_sep:
            return pos
    raise RuntimeError("could not draw a separated configuration")


def _masses(rng, k, lo=0.5, hi=3.0):
    return [float(m) for m in rng.uniform(lo, hi, size=k)]


# --- cc_solve: solve-cc on n-body specs ---------------------------------

def _cc_known(bodies, dim, *, center=False, collinear=False):
    def make(rng, j):
        if collinear:
            masses = _masses(rng, bodies)
            pos = np.linspace(-1.0, 1.0, bodies)[:, None]
            init = _jitter(rng, _centered(pos, masses), 0.05).ravel()
            return Variant({"type": "nbody", "masses": masses, "dim": 3},
                           init, ("--collinear", "--seed", str(j)))
        if bodies == 3:
            masses = _masses(rng, 3)
            pos = _lagrange(rng, masses, rng.uniform(0.5, 2.0))
        else:
            ring = bodies - 1 if center else bodies
            masses = [1.0] * bodies
            if center:
                masses[0] = float(rng.uniform(0.5, 4.0))
            pos = _ring(ring, rng.uniform(0.5, 2.0), _plane(rng, dim), center)
        init = _jitter(rng, pos, 0.01 * float(np.abs(pos).max())).ravel()
        return Variant({"type": "nbody", "masses": masses, "dim": dim},
                       init, ("--seed", str(j)))
    return make


def _cc_random(bodies, dim, *, equal=True, collinear=False):
    def make(rng, j):
        masses = [1.0] * bodies if equal else _masses(rng, bodies)
        spec = {"type": "nbody", "masses": masses, "dim": dim}
        args = ("--collinear",) if collinear else ()
        return Variant(spec, None, args + ("--seed", str(j)))
    return make


# equilibria (FD Jacobian, lstsq) and scaling (the verifier inside
# make_system) do nearly all the work; dynamics does none.  Random 10- and
# 20-body starts that exit 2 at this commit stay in: they are the baseline
# for solver-robustness work.  Many cheap solves, and a large share of each
# pool per round, because the costly random starts vary several-fold in
# time and only many of them keep a run's throughput steady across seeds.
SMALL_POOL = 48

CC_SOLVE = Workload(
    name="cc_solve",
    templates=(
        Template("tri2d", "solve-cc", 24, _cc_known(3, 2), SMALL_POOL),
        Template("rand3d3", "solve-cc", 24, _cc_random(3, 3, equal=False), SMALL_POOL),
        Template("col3", "solve-cc", 24, _cc_random(3, 3, equal=False, collinear=True),
                 SMALL_POOL),
        Template("col4", "solve-cc", 24, _cc_known(4, 1, collinear=True), SMALL_POOL),
        Template("square2d", "solve-cc", 24, _cc_known(4, 2), SMALL_POOL),
        Template("ring6c2d", "solve-cc", 24, _cc_known(6, 2, center=True), SMALL_POOL),
        Template("rand2d6", "solve-cc", 24, _cc_random(6, 2), SMALL_POOL),
        Template("ring10", "solve-cc", 12, _cc_known(10, 3)),
        Template("rand3d10", "solve-cc", 12, _cc_random(10, 3)),
        Template("ring20", "solve-cc", 8, _cc_known(20, 3)),
        Template("rand3d20", "solve-cc", 4, _cc_random(20, 3)),
    ),
    warmup="tri2d",
)


# --- orbit: long integrate and homothetic windows ------------------------

def _rotating_triangle(rng, j):
    # A jittered Lagrange triangle in near-rigid rotation: no close approach
    # within the window.
    side = rng.uniform(0.8, 1.5)
    pos = _jitter(rng, _lagrange(rng, [1.0] * 3, side), 0.01)
    omega = math.sqrt(3.0 / side ** 3) * (1 if j % 2 else -1)
    mom = omega * np.column_stack((-pos[:, 1], pos[:, 0]))
    return Variant({"type": "nbody", "masses": [1.0] * 3, "dim": 2},
                   np.concatenate((pos.ravel(), mom.ravel())),
                   ORBIT_ARGS, ORBIT_STEPS)


def _expanding_cluster(rng, j):
    # Light bodies in homologous expansion: separations only grow.
    masses = [float(m) for m in rng.uniform(0.5, 1.5, size=20) / 20.0]
    pos = _separated(rng, 20, 3, 1.0, 0.3)
    mom = np.asarray(masses)[:, None] * (1.5 * pos + 0.05 * rng.normal(size=pos.shape))
    return Variant({"type": "nbody", "masses": masses, "dim": 3},
                   np.concatenate((pos.ravel(), mom.ravel())),
                   ORBIT_ARGS, ORBIT_STEPS)


def _damped_spec(rng):
    return {"type": "damped-oscillator", "b": float(rng.uniform(0.05, 0.5)),
            "z0": [float(x) for x in rng.uniform(-1.0, 1.0, size=2)]}


def _damped(rng, j):
    return Variant(_damped_spec(rng), None, ("--dt", "0.001", "--t-final", "2.0"),
                   2 * ORBIT_STEPS)


def _homothetic(known):
    def make(rng, j):
        v = known(rng, j)
        return Variant(v.spec, v.init, ORBIT_ARGS)
    return make


# dynamics, phase and the systems kernel carry the op time: per-step Python
# overhead (planar 3-body), the O(N^2) kernel (3-D 20-body) and a field that
# is not n-body (damped oscillator, c != 0).  equilibria runs only at set-up.
ORBIT = Workload(
    name="orbit",
    templates=(
        Template("int_do", "integrate", 2, _damped),
        Template("int2d3", "integrate", 3, _rotating_triangle),
        Template("homo2d3", "homothetic", 3, _homothetic(_cc_known(3, 2))),
        Template("homo3d20", "homothetic", 1, _homothetic(_cc_known(20, 3))),
        Template("int3d20", "integrate", 2, _expanding_cluster),
    ),
    warmup="int_do",
)


# --- flow_certify: verify with flow, noether and the symmetry checks ----

def _flow_nbody(bodies, dim, t_final):
    def make(rng, j):
        spec = {"type": "nbody", "masses": _masses(rng, bodies), "dim": dim}
        return Variant(spec, None, ("--dt", "0.001", "--t-final", t_final,
                                    "--seed", str(j)))
    return make


def _flow_kepler(rng, j):
    return Variant({"type": "anisotropic-kepler", "mu": float(rng.uniform(1.2, 4.0))},
                   None, ("--dt", "0.001", "--t-final", "0.1", "--seed", str(j)))


def _flow_damped(rng, j):
    return Variant(_damped_spec(rng), None, ("--dt", "0.001", "--t-final", "0.5",
                                             "--seed", str(j)))


# dynamics runs as many short, restarted integrations (flow_jacobian takes
# 4n of them over one window), not one long one: a batching change shows
# here and not in orbit, a per-step change in both.
FLOW_CERTIFY = Workload(
    name="flow_certify",
    templates=(
        Template("flow_do", "verify", 2, _flow_damped),
        Template("flow_kep", "verify", 2, _flow_kepler),
        Template("flow2d3", "verify", 4, _flow_nbody(3, 2, "0.02")),
        Template("flow3d10", "verify", 2, _flow_nbody(10, 3, "0.01")),
    ),
    warmup="flow_kep",
)

WORKLOADS = {w.name: w for w in (CC_SOLVE, ORBIT, FLOW_CERTIFY)}


# --- materializing ops --------------------------------------------------

def _write_csv(path: Path, row: np.ndarray):
    path.write_text(",".join(repr(float(x)) for x in row) + "\n", encoding="utf-8")


def materialize(workdir: Path, template: Template, j: int) -> Op:
    """Write the input files of pool item j and return its op."""
    key = f"{template.name}.{j:02d}"
    v = template.make(_rng("variant", template.name, j), j)
    (workdir / "in").mkdir(exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    spec_path = f"in/{key}.json"
    (workdir / spec_path).write_text(json.dumps(v.spec, sort_keys=True) + "\n",
                                     encoding="utf-8")
    init = ()
    if v.init is not None:
        _write_csv(workdir / f"in/{key}.csv", v.init)
        init = ("--init", f"in/{key}.csv")

    if template.command == "homothetic":
        re_path = f"in/{key}.re.json"
        setup = ("solve-cc", "--system", spec_path) + init + ("--out", re_path)
        argv = ("homothetic", "--re", re_path) + v.args + ("--out", f"out/{key}.json")
        return Op(key, template.command, argv, f"out/{key}.json", setup_argv=setup)
    ext = "csv" if template.command == "integrate" else "json"
    out = f"out/{key}.{ext}"
    argv = (template.command, "--system", spec_path) + init + v.args + ("--out", out)
    return Op(key, template.command, argv, out, steps=v.steps)


def round_plan(workload: Workload, seed: int) -> list:
    """The seeded round: (template, variant) pairs in op order."""
    rng = _rng("round", workload.name, seed)
    plan = []
    for t in workload.templates:
        for j in sorted(rng.choice(t.pool, size=t.per_round, replace=False)):
            plan.append((t, int(j)))
    order = rng.permutation(len(plan))
    return [plan[i] for i in order]


def warmup_item(workload: Workload, plan: list) -> tuple:
    """The round's first (template, variant) of the warm-up template."""
    return next((t, j) for t, j in plan if t.name == workload.warmup)


# --- output checks --------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    ok: bool        # the op succeeded and its output passed the gate
    correct: bool   # the output is consistent with the CLI contract
    detail: str = ""


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(op: Op, code: int, workdir: Path, read_trajectory_csv) -> Verdict:
    """Gate one op on its exit code and artifact.

    solve-cc must certify with residual_full <= SOLVE_TOL (exit 2 is a
    failed op with a diagnostic artifact); verify must pass; homothetic
    must stay within HOMOTHETIC_MAX_DEV; an integrate CSV must read back
    through ``read_trajectory_csv`` with steps + 1 rows.
    """
    out = workdir / op.out
    if not out.is_file():
        return Verdict(False, False, f"exit {code}, no artifact")
    if op.command == "solve-cc":
        doc = _load(out)
        if code == EXIT_NO_CONVERGENCE:
            # Known solver defect on some random starts: a failed op, but a
            # well-formed diagnostic artifact is what the contract asks for.
            good = doc.get("certified") is False and "diagnostics" in doc
            return Verdict(False, good, "exit 2 (no convergence)")
        good = (code == EXIT_OK and doc.get("certified") is True
                and doc["residual_full"] <= SOLVE_TOL)
        return Verdict(good, good, "" if good else f"exit {code}, uncertified")
    if op.command == "verify":
        good = code == EXIT_OK and _load(out).get("passed") is True
        return Verdict(good, good, "" if good else f"exit {code}, verify failed")
    if op.command == "homothetic":
        dev = _load(out).get("homothetic_deviation")
        good = code == EXIT_OK and dev is not None and dev <= HOMOTHETIC_MAX_DEV
        return Verdict(good, good, "" if good else f"exit {code}, deviation {dev}")
    traj = read_trajectory_csv(str(out))
    good = code == EXIT_OK and len(traj) == op.steps + 1
    return Verdict(good, good, "" if good else f"exit {code}, {len(traj)} rows")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def prepare(workdir: Path, plan: list, cli_main) -> list:
    """Write the inputs of every planned op and make the homothetic inputs.

    The relative equilibria that homothetic ops read come from solve-cc;
    an uncertified one is a set-up error, not a failed op.
    """
    ops = [materialize(workdir, t, j) for t, j in plan]
    for op in ops:
        if op.setup_argv is not None:
            code = cli_main(list(op.setup_argv))
            doc = _load(workdir / op.setup_argv[-1])
            if code != EXIT_OK or doc.get("certified") is not True:
                raise RuntimeError(f"set-up solve-cc for {op.key} exited {code}")
    return ops
