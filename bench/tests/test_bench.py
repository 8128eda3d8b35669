"""Tests of the benchmark itself: inputs, tracer arithmetic, metric names.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from scalesym import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _inputs(workdir: Path, workload, seed: int) -> dict:
    workdir.mkdir()
    with contextlib.chdir(workdir):
        workloads.prepare(workdir, workloads.round_plan(workload, seed), cli.main)
    return {str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = _inputs(tmp_path / "a", workload, 7)
    assert first == _inputs(tmp_path / "b", workload, 7)
    assert first != _inputs(tmp_path / "c", workload, 8)


def test_reference_covers_every_pool_item():
    reference = json.loads((BENCH / "reference.json").read_text())
    for name, workload in workloads.WORKLOADS.items():
        keys = {f"{t.name}.{j:02d}" for t in workload.templates for j in range(t.pool)}
        assert set(reference[name]) == keys


def test_self_time_of_nested_spans():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    kernel = t.wrap(tracer.KERNEL, lambda: None)
    b = t.wrap("b", kernel)
    d = t.wrap("d", lambda: None)
    a = t.wrap(tracer.INTEGRATE, lambda: (b(), d(), d()))
    a()
    # a: [0, 9] holding b [1, 4] (holding the kernel [2, 3]) and d [5, 6], [7, 8]
    assert dict(t.total) == {tracer.INTEGRATE: 9.0, "b": 3.0, tracer.KERNEL: 1.0, "d": 2.0}
    assert dict(t.own) == {tracer.INTEGRATE: 4.0, "b": 2.0, tracer.KERNEL: 1.0, "d": 2.0}
    assert list(t.columns["parent"]) == [1, 0, 0, 0, -1]
    assert t.nested[tracer.INTEGRATE, tracer.KERNEL] == 1 and t.kernel_hosts == {0}


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def _one_per_template(real_plan):
    def plan(workload, seed):
        seen, out = set(), []
        for t, j in real_plan(workload, seed):
            if t.name not in seen:
                seen.add(t.name)
                out.append((t, j))
        return out
    return plan


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(monkeypatch, name, trace):
    monkeypatch.setattr(workloads, "round_plan", _one_per_template(workloads.round_plan))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.run(["--workload", name, "--seed", "3", "--seconds", "0",
                        "--trace", str(trace)]) == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["artifact_match_ratio"]["value"] == 1.0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
