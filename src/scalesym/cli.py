"""Command-line front end.

Subcommands: solve-cc, verify, integrate, homothetic.  Exit codes are a
contract for scripted sweeps:

    0  success
    1  I/O or specification errors
    2  solver non-convergence (diagnostic JSON still written)
    3  symmetry-verification failure
    4  dynamics guard (collision threshold, blow-up window, non-finite state)

All JSON artifacts embed the resolved configuration, and identical
(config, seed) pairs produce byte-identical outputs.  The scaling-symmetry
verifier runs only where its verdict is read: once before ``solve-cc``
solves, and in ``verify`` when ``--checks`` names a symmetry selector;
``integrate`` and ``homothetic`` accept ``--samples`` but do not read it.
Log level comes from the SCALESYM_LOG environment variable.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .dynamics import Trajectory, integrate, noether_series, \
    verify_conformal_flow, verify_homothetic_orbit
from .equilibria import certify_relative_equilibrium, momentum_from_config, \
    solve_central_configuration, xi_squared_from_config
from .errors import BlowupWindow, CollisionDetected, DimensionMismatch, \
    NonFiniteValue, SchemaError, SolverDidNotConverge, UncertifiedInput
from .phase import PhasePoint
from .systems import BuiltSystem, ConformalSystem, NBodySpec, make_system, \
    min_pairwise_distance

log = logging.getLogger("scalesym")

EXIT_OK = 0
EXIT_IO = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFICATION = 3
EXIT_DYNAMICS = 4

CHECK_NAMES = ("symplectic", "invariance", "momentum", "scaling-function",
               "noether", "flow")
# CLI selector -> verifier check names.
_SYMMETRY_SELECTORS = {
    "symplectic": ("conformality",),
    "invariance": ("invariance",),
    "momentum": ("momentum-map", "momentum-invariance"),
    "scaling-function": ("scaling-function",),
}


def _setup_logging():
    level = os.environ.get("SCALESYM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _jsonify(obj):
    """Coerce numpy scalars/arrays so artifacts serialize deterministically."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_vector(path: str) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", dtype=float)
    return np.atleast_1d(data).ravel()


def write_trajectory_csv(path: str, traj: Trajectory):
    """Fixed column order: t, q_1..q_n, p_1..p_n, H, J, K, int_theta."""
    n = traj.n
    header = (["t"] + [f"q_{i + 1}" for i in range(n)]
              + [f"p_{i + 1}" for i in range(n)] + ["H", "J", "K", "int_theta"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(traj)):
            row = ([traj.times[k]] + list(traj.qs[k]) + list(traj.ps[k])
                   + [traj.energy[k], traj.momentum[k], traj.kinetic[k],
                      traj.int_theta[k]])
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_trajectory_csv(path: str) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = (len(header) - 5) // 2
    return Trajectory(times=data[:, 0], qs=data[:, 1:1 + n],
                      ps=data[:, 1 + n:1 + 2 * n], energy=data[:, 1 + 2 * n],
                      momentum=data[:, 2 + 2 * n], kinetic=data[:, 3 + 2 * n],
                      int_theta=data[:, 4 + 2 * n])


def _resolved_config(args, extra=None) -> dict:
    config = {k: v for k, v in vars(args).items()
              if k != "func" and v is not None}
    config["version"] = __version__
    if extra:
        config.update(extra)
    return config


def _build(args) -> tuple[dict, BuiltSystem]:
    spec = _load_json(args.system)
    return spec, make_system(spec)


def _mechanical_or_die(built: BuiltSystem):
    if isinstance(built.system, ConformalSystem):
        raise SchemaError("this subcommand needs a mechanical system with "
                          "a scaling action, not a conformal benchmark")
    return built.system, built.action


def _random_start(system, rng) -> np.ndarray:
    nspec = (NBodySpec(masses=tuple(system.masses), dim=system.dim)
             if system.translation_invariant else None)
    for _ in range(200):
        q = rng.uniform(-1.0, 1.0, size=system.n)
        if nspec is None or min_pairwise_distance(nspec, q) > 0.3:
            return q
    raise SchemaError("could not draw a collision-free start")


def _solve_one(system, action, q0, args, spec, job=None):
    config = _resolved_config(args, {"job": job} if job is not None else None)
    try:
        result = solve_central_configuration(
            system, action, q0, tol=args.tol, max_iter=args.max_iter,
            verify_symmetry=False)
    except SolverDidNotConverge as exc:
        payload = {"error": str(exc), "certified": False,
                   "diagnostics": exc.diagnostics, "system": spec,
                   "config": config}
        return EXIT_NO_CONVERGENCE, payload
    payload = result.to_dict()
    payload["system"] = spec
    payload["config"] = config
    return EXIT_OK, payload


def cmd_solve_cc(args) -> int:
    spec = _load_json(args.system)
    if args.collinear:
        if not isinstance(spec, dict) or spec.get("type") != "nbody":
            raise SchemaError("--collinear applies to nbody systems")
        spec = dict(spec, dim=1)
    built = make_system(spec)
    system, action = _mechanical_or_die(built)
    report = built.verify(args.samples, args.seed)
    if not report.passed:
        _write_json(args.out, {"error": "scaling-symmetry verification failed",
                               "report": report.to_dict(),
                               "system": spec,
                               "config": _resolved_config(args)})
        return EXIT_VERIFICATION

    rng = np.random.default_rng(args.seed)
    init = _load_vector(args.init) if args.init else None
    if init is not None and len(init) != system.n:
        raise SchemaError(f"--init has {len(init)} values, expected {system.n}")

    def start_for(job: int) -> np.ndarray:
        if init is None:
            return _random_start(system, np.random.default_rng(args.seed + job))
        if job == 0:
            return init
        jitter = np.random.default_rng(args.seed + job).uniform(
            -0.01, 0.01, size=len(init))
        return init * (1.0 + jitter)

    if args.jobs <= 1:
        code, payload = _solve_one(system, action, start_for(0), args, spec)
        _write_json(args.out, payload)
        return code

    base, ext = os.path.splitext(args.out)
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(_solve_one, system, action, start_for(j),
                               args, spec, j) for j in range(args.jobs)]
        codes = []
        for j, fut in enumerate(futures):
            code, payload = fut.result()
            _write_json(f"{base}.job{j}{ext}", payload)
            codes.append(code)
    return max(codes)


def _flow_of(built: BuiltSystem):
    """(field, c, default flat start) of what a command integrates: a
    conformal benchmark's own, or H with c = 0 and no default start."""
    if isinstance(built.system, ConformalSystem):
        return built.system.field, built.system.c, built.system.z0
    return built.system.hamiltonian_field(), 0.0, None


def cmd_verify(args) -> int:
    spec, built = _build(args)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for name in checks:
        if name not in CHECK_NAMES:
            raise SchemaError(f"unknown check {name!r}; choose from "
                              f"{', '.join(CHECK_NAMES)}")

    results = []
    action = built.action
    report = (built.verify(args.samples, args.seed)
              if any(name in _SYMMETRY_SELECTORS for name in checks) else None)
    # One trajectory serves both flow-level checks; a conformal benchmark
    # declares no action, so it has no Noether check.
    if "flow" in checks or ("noether" in checks and action is not None):
        field, c, flat = _flow_of(built)
        z0 = (_expanding_state(built, args.seed) if flat is None
              else PhasePoint.from_flat(flat))
        traj = integrate(field, c, z0, args.t_final, args.dt)

    for name in checks:
        if name in _SYMMETRY_SELECTORS:
            if report is None:
                continue  # conformal benchmark declares no action
            for sub in _SYMMETRY_SELECTORS[name]:
                results.append(report.check(sub).to_dict() | {"selector": name})
        elif name == "noether":
            if action is None:
                continue
            series = noether_series(action, traj)
            drift = float(series.drift / max(1.0, abs(series.values[0])))
            results.append({"name": "noether-drift", "selector": "noether",
                            "max_residual": drift,
                            "passed": drift <= args.flow_tol})
        elif name == "flow":
            fr = dataclasses.replace(
                verify_conformal_flow(field, c, traj, args.t_final, args.dt),
                tolerance=args.flow_tol)
            worst = max(fr.conformal_defect, fr.volume_defect,
                        fr.energy_rate_defect)
            results.append({"name": "flow-defects", "selector": "flow",
                            "max_residual": worst,
                            "passed": worst <= args.flow_tol,
                            "report": fr.to_dict()})

    passed = bool(all(r["passed"] for r in results)) if results else False
    payload = {"passed": passed, "checks": results,
               "system": spec, "config": _resolved_config(args)}
    if args.out:
        _write_json(args.out, payload)
    else:
        json.dump(_jsonify(payload), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK if passed else EXIT_VERIFICATION


def _expanding_state(built: BuiltSystem, seed: int) -> PhasePoint:
    # A random separated configuration q (the solve-cc start) with p = M xi q.
    # It is not a central configuration, so nothing keeps a long window
    # collision-free (ROADMAP item 2).
    system, action = built.system, built.action
    q = _random_start(system, np.random.default_rng(seed))
    try:
        xi = float(np.sqrt(max(xi_squared_from_config(system, q), 0.0)))
    except ValueError:
        xi = 0.0
    return PhasePoint(q, momentum_from_config(system, action, xi, q))


def cmd_integrate(args) -> int:
    spec, built = _build(args)
    field, c, default_z0 = _flow_of(built)

    if args.init:
        flat = _load_vector(args.init)
    elif spec.get("z0") is not None:
        flat = np.asarray(spec["z0"], dtype=float)
    elif default_z0 is not None:
        flat = np.asarray(default_z0, dtype=float)
    else:
        raise SchemaError("no initial state: pass --init or put 'z0' in the spec")

    traj = integrate(field, c, PhasePoint.from_flat(flat), args.t_final,
                     args.dt, action=built.action)
    write_trajectory_csv(args.out, traj)
    log.info("wrote %d states to %s", len(traj), args.out)
    return EXIT_OK


def cmd_homothetic(args) -> int:
    re_doc = _load_json(args.re)
    for key in ("q", "xi", "system"):
        if key not in re_doc:
            raise SchemaError(f"relative-equilibrium JSON lacks {key!r}")
    built = make_system(re_doc["system"])
    system, action = _mechanical_or_die(built)
    # Earn the certificate again; the file's p, flag and residuals are ignored.
    try:
        q = np.atleast_1d(np.asarray(re_doc["q"], float))
        xi = float(re_doc["xi"])
    except (TypeError, ValueError):
        raise SchemaError("q and xi must be numbers") from None
    if q.shape != (system.n,):
        raise DimensionMismatch(f"q has shape {q.shape}, expected ({system.n},)")
    re = certify_relative_equilibrium(system, action, q, xi, tol=args.tol)
    report = verify_homothetic_orbit(system.hamiltonian_field(), action, re,
                                     args.t_final, args.dt)
    payload = report.to_dict() | {"system": re_doc["system"],
                                  "config": _resolved_config(args)}
    _write_json(args.out, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalesym",
        description="Scaling symmetries, conformal momentum maps, and "
                    "central configurations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, dt_default=1e-3, t_default=1.0):
        p.add_argument("--tol", type=float, default=1e-10,
                       help="solver/certification tolerance (default 1e-10)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all random draws (default 0)")
        p.add_argument("--samples", type=int, default=32,
                       help="probes for symmetry verification, read by solve-cc "
                            "and verify (default 32)")
        p.add_argument("--dt", type=float, default=dt_default,
                       help=f"integrator step (default {dt_default})")
        p.add_argument("--t-final", dest="t_final", type=float,
                       default=t_default,
                       help=f"integration window (default {t_default})")

    p = sub.add_parser("solve-cc", help="solve for a central configuration")
    p.add_argument("--system", required=True, help="system spec JSON")
    p.add_argument("--init", help="CSV with the initial configuration q0")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100,
                   help="Levenberg-Marquardt iteration budget (default 100)")
    p.add_argument("--collinear", action="store_true",
                   help="solve the one-dimensional (collinear) problem")
    p.add_argument("--jobs", type=int, default=1,
                   help="fan out this many independent solves")
    p.add_argument("--out", default="relative-equilibrium.json")
    common(p)
    p.set_defaults(func=cmd_solve_cc)

    p = sub.add_parser("verify", help="run scaling-symmetry and flow checks")
    p.add_argument("--system", required=True)
    p.add_argument("--checks", default=",".join(CHECK_NAMES),
                   help=f"comma list from: {', '.join(CHECK_NAMES)}")
    p.add_argument("--flow-tol", dest="flow_tol", type=float, default=1e-5,
                   help="tolerance for noether/flow defects (default 1e-5)")
    p.add_argument("--out", help="write the report JSON here (default stdout)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("integrate", help="integrate and write a trajectory CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--init", help="CSV with the 2n initial values (q then p)")
    p.add_argument("--out", default="trajectory.csv")
    common(p, t_default=1.0)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("homothetic",
                       help="check a relative equilibrium against its group orbit")
    p.add_argument("--re", required=True,
                   help="relative-equilibrium JSON (embeds the system spec)")
    p.add_argument("--out", default="homothetic-report.json")
    common(p)
    p.set_defaults(func=cmd_homothetic)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, SchemaError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverDidNotConverge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (CollisionDetected, BlowupWindow, NonFiniteValue,
            UncertifiedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS


if __name__ == "__main__":
    sys.exit(main())
