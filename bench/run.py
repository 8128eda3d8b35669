"""End-to-end and per-layer benchmark of the scalesym command line.

Usage, from the repository root:

    python3 bench/run.py --workload cc_solve --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each op is an in-process call of
``scalesym.cli.main(argv)`` made after the previous one returned, so the
interpreter start-up and the numpy import land in ``setup_s`` and not in
op times.  BLAS is pinned to one thread.  Set-up (input generation plus a
warm-up op) runs ``SETUP_REPEATS`` times; ``setup_s`` is the import time
plus the median.  The seeded round of ops (see ``workloads.py``) then
repeats while another whole round fits in ``--seconds``; at least once.

Every op is gated on its exit code and artifact, and every artifact is
hashed against ``reference.json``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced
(``tracer.py``) and prints the per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object; a fuller
report and the spans go to ``.bench_out/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads, through the imports below.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


@dataclass(frozen=True)
class OpResult:
    key: str
    exit: int
    seconds: float
    ok: bool
    correct: bool
    drift: bool
    size: int                  # artifact bytes
    detail: str


def import_program():
    """Import scalesym from the checkout's sources."""
    src = ROOT / "src"
    if not (src / "scalesym" / "__init__.py").is_file():
        raise SystemExit(f"error: no scalesym sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import scalesym
    import scalesym.cli
    return scalesym


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
            "load": "1 process, 1 client, closed loop, in-process cli.main calls"}


class Runner:
    """Runs ops in the work directory and gates each one."""

    def __init__(self, cli, workdir: Path, reference: dict):
        self.main = cli.main
        self.read_csv = cli.read_trajectory_csv
        self.workdir = workdir
        self.reference = reference

    def __call__(self, op) -> OpResult:
        out = self.workdir / op.out
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.main(list(op.argv))
        except Exception as exc:  # escaped the CLI's exit-code contract
            code, verdict = -1, workloads.Verdict(False, False, f"crashed: {exc!r}")
        seconds = time.perf_counter() - start
        if code != -1:
            verdict = workloads.check(op, code, self.workdir, self.read_csv)
        written = out.is_file()
        drift = not written or self.reference.get(op.key) != workloads.digest(out)
        return OpResult(op.key, code, seconds, verdict.ok, verdict.correct, drift,
                        out.stat().st_size if written else 0, verdict.detail)


def measure(ops, seconds: float, runner) -> list:
    """Repeat the round while another whole round fits in ``seconds``."""
    results, rounds = [], 0
    start = time.perf_counter()
    while True:
        results.extend(runner(op) for op in ops)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return results


def set_up(workload, seed, scratch: Path, cli):
    """Generate the inputs and warm up, SETUP_REPEATS times; median time."""
    times = []
    for k in range(SETUP_REPEATS):
        workdir = scratch / f"setup{k}"
        workdir.mkdir()
        os.chdir(workdir)
        start = time.perf_counter()
        plan = workloads.round_plan(workload, seed)
        ops = workloads.prepare(workdir, plan, cli.main)
        warm = workloads.materialize(workdir, *workloads.warmup_item(workload, plan))
        code = cli.main(list(warm.argv))
        if code not in (workloads.EXIT_OK, workloads.EXIT_NO_CONVERGENCE):
            raise RuntimeError(f"warm-up op {warm.key} exited {code}")
        times.append(time.perf_counter() - start)
    return ops, workdir, statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(results, setup_s: float) -> dict:
    times = [r.seconds for r in results]
    ok = sum(r.ok for r in results)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] \
        if len(times) > 1 else times[0]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (p90, "s"),
        "success_ratio": (ok / len(results), "ratio"),
        "artifact_match_ratio": (1.0 - sum(r.drift for r in results) / len(results),
                                 "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_metrics(ops, seconds, runner, scalesym, spans_path: Path):
    """Half the time untraced, half traced; per-layer metrics and overhead."""
    untraced = measure(ops, seconds / 2.0, runner)
    t = tracer.Tracer()
    plain_main = runner.main
    runner.main = t.wrap(tracer.MAIN, plain_main)
    op_ids = itertools.count()

    def traced_op(op):
        t.op = next(op_ids)
        try:
            return runner(op)
        finally:
            t.op = -1

    t.install(scalesym)
    try:
        traced = measure(ops, seconds / 2.0, traced_op)
    finally:
        t.uninstall()
        runner.main = plain_main
    t.write(spans_path)

    metrics = tracer.layer_metrics(t, len(traced), sum(r.size for r in traced))
    overhead = (statistics.fmean(r.seconds for r in traced)
                / statistics.fmean(r.seconds for r in untraced))
    metrics["trace.overhead"] = (overhead, "ratio")
    return untraced + traced, metrics


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scalesym = import_program()
    import_s = time.perf_counter() - _T0
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    cwd = os.getcwd()
    try:
        ops, workdir, setup_s = set_up(workload, args.seed, scratch, scalesym.cli)
        runner = Runner(scalesym.cli, workdir, reference)
        if args.trace:
            results, metrics = traced_metrics(ops, args.seconds, runner, scalesym,
                                              out_dir / f"{workload.name}-spans.npz")
        else:
            results = measure(ops, args.seconds, runner)
            metrics = e2e_metrics(results, import_s + setup_s)
    finally:
        os.chdir(cwd)
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    drift = sum(r.drift for r in results)
    correct = all(r.correct for r in results)
    facts = machine_facts()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "import_s": import_s,
              "round_ops": len(ops), "attempted": len(results), "failed": failed,
              "fail_ratio": failed / len(results), "artifact_drift": drift,
              "correct": correct, "peak_rss_mb": peak_rss_mb(), "metrics": metrics,
              "first_round": [asdict(r) for r in results[:len(ops)]]}
    (out_dir / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(results)} op_s samples ({len(results) // len(ops)} rounds of "
          f"{len(ops)} ops), fail_ratio={failed / len(results):.4f} "
          f"artifact_drift={drift} correct={correct}")
    print(f"# machine: {json.dumps(facts)}")
    for r in results[:len(ops)]:
        if not r.ok or r.drift:
            print(f"#   {r.key}: {r.detail}{' (artifact drift)' if r.drift else ''}")
    for key, m in metrics.items():
        print(f"# {key:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run())
