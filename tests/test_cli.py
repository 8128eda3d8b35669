import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scalesym import FD_STEP, NBodySpec, cli, certify_relative_equilibrium, \
    dynamics, equilibria, euler_collinear_oracle, integrate, lagrange_triangle, \
    make_system, nbody_system, solve_central_configuration, systems
from scalesym.cli import main, read_trajectory_csv, write_trajectory_csv
from scalesym.systems import damped_oscillator
from scalesym.phase import PhasePoint

from conftest import kepler_action


@pytest.fixture
def workdir(tmp_path):
    specs = {
        "nbody3.json": {"type": "nbody", "masses": [1, 1, 1], "dim": 2},
        "nbody3-unequal.json": {"type": "nbody", "masses": [1, 1, 2], "dim": 3},
        "damped.json": {"type": "damped-oscillator", "b": 0.1},
        "bad-c.json": {"type": "nbody", "masses": [1, 1, 1], "dim": 2,
                       "action": {"kind": "dilation", "c": 1.0, "b": -1.0}},
    }
    for name, doc in specs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    tri = lagrange_triangle([1.0, 1.0, 1.0], 1.0)
    rng = np.random.default_rng(3)
    q0 = tri * (1.0 + rng.uniform(-0.05, 0.05, size=6))
    np.savetxt(tmp_path / "triangle-perturbed.csv", q0[None, :], delimiter=",")
    np.savetxt(tmp_path / "collinear.csv",
               np.array([[-1.1, 0.05, 1.0]]), delimiter=",")
    return tmp_path


def test_solve_cc_certifies_triangle(workdir):
    out = workdir / "re.json"
    code = main(["solve-cc", "--system", str(workdir / "nbody3.json"),
                 "--init", str(workdir / "triangle-perturbed.csv"),
                 "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"]
    assert doc["residual_full"] <= 1e-10
    # normalization comes from the (perturbed) start, so xi^2 is near 6
    assert doc["xi"] ** 2 == pytest.approx(6.0, rel=0.2)
    assert doc["system"]["type"] == "nbody"
    assert "config" in doc


def test_solve_cc_non_convergence_exit_code(workdir):
    out = workdir / "re-fail.json"
    code = main(["solve-cc", "--system", str(workdir / "nbody3.json"),
                 "--init", str(workdir / "triangle-perturbed.csv"),
                 "--max-iter", "1", "--out", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert not doc["certified"]
    assert "residual" in doc["diagnostics"]


def test_solve_cc_collinear_matches_oracle(workdir):
    out = workdir / "re-collinear.json"
    code = main(["solve-cc", "--system", str(workdir / "nbody3-unequal.json"),
                 "--collinear", "--init", str(workdir / "collinear.csv"),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    q = np.asarray(doc["q"])
    ratio = (q[1] - q[0]) / (q[2] - q[0])
    assert ratio == pytest.approx(euler_collinear_oracle((1.0, 1.0, 2.0)), abs=1e-8)


def test_solve_cc_collinear_builds_the_system_once(workdir, monkeypatch):
    dims = []
    make_system = cli.make_system

    def counting_make_system(spec, **kwargs):
        dims.append(spec.get("dim"))
        return make_system(spec, **kwargs)

    monkeypatch.setattr(cli, "make_system", counting_make_system)
    code = main(["solve-cc", "--system", str(workdir / "nbody3-unequal.json"),
                 "--collinear", "--init", str(workdir / "collinear.csv"),
                 "--out", str(workdir / "re-collinear.json")])
    assert code == 0
    assert dims == [1]


def test_solve_cc_outputs_are_deterministic(workdir):
    args = ["solve-cc", "--system", str(workdir / "nbody3.json"),
            "--init", str(workdir / "triangle-perturbed.csv"), "--seed", "7"]
    out1, out2 = workdir / "d1.json", workdir / "d2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes().replace(b"d1.json", b"out.json")
    b2 = out2.read_bytes().replace(b"d2.json", b"out.json")
    assert b1 == b2


def test_solve_cc_jobs_fan_out(workdir):
    out = workdir / "sweep.json"
    code = main(["solve-cc", "--system", str(workdir / "nbody3.json"),
                 "--init", str(workdir / "triangle-perturbed.csv"),
                 "--jobs", "2", "--out", str(out)])
    assert code == 0
    for j in range(2):
        doc = json.loads((workdir / f"sweep.job{j}.json").read_text())
        assert doc["certified"]
        assert doc["config"]["job"] == j


def test_verify_passes_nbody(workdir):
    out = workdir / "verify.json"
    code = main(["verify", "--system", str(workdir / "nbody3.json"),
                 "--seed", "42", "--t-final", "0.2", "--dt", "2e-3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"]
    symmetry = [c for c in doc["checks"] if c["selector"] not in ("noether", "flow")]
    assert max(c["max_residual"] for c in symmetry) <= 1e-6


def test_verify_detects_wrong_exponent(workdir):
    out = workdir / "verify-bad.json"
    code = main(["verify", "--system", str(workdir / "bad-c.json"),
                 "--checks", "symplectic,invariance,momentum,scaling-function",
                 "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    bad = {c["name"]: c for c in doc["checks"]}
    assert not bad["invariance"]["passed"]
    assert bad["invariance"]["max_residual"] > 0.1


def test_verify_damped_oscillator_flow(workdir):
    out = workdir / "verify-flow.json"
    code = main(["verify", "--system", str(workdir / "damped.json"),
                 "--checks", "flow", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["report"]["volume_defect"] <= 1e-5


def _count_integrations(monkeypatch) -> list:
    # Both namespaces: the CLI's own calls and any the flow check makes.
    calls = []

    def counting_integrate(*args, **kwargs):
        calls.append(args[2])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counting_integrate)
    monkeypatch.setattr(dynamics, "integrate", counting_integrate)
    return calls


def test_verify_noether_and_flow_integrate_one_trajectory(workdir, monkeypatch):
    calls = _count_integrations(monkeypatch)
    code = main(["verify", "--system", str(workdir / "nbody3.json"),
                 "--checks", "noether,flow", "--t-final", "0.02",
                 "--out", str(workdir / "verify-once.json")])
    assert code == 0
    assert len(calls) == 1


def test_verify_damped_oscillator_flow_integrates_once(workdir, monkeypatch):
    calls = _count_integrations(monkeypatch)
    assert main(["verify", "--system", str(workdir / "damped.json"),
                 "--checks", "flow", "--t-final", "0.1",
                 "--out", str(workdir / "verify-flow-once.json")]) == 0
    assert len(calls) == 1
    assert list(calls[0].flat()) == [1.0, 0.0]  # the benchmark's own start


def test_verify_collision_in_a_flow_probe_exits_4(workdir, capsys):
    # The threshold sits half a probe step under the start's separation: the
    # expanding start itself stays clear (noether integrates it over the
    # same window), but a flow-Jacobian probe that moves one body towards
    # the other starts inside it.
    spec = {"type": "nbody", "masses": [1.0, 1.0], "dim": 1}
    z0 = cli._expanding_state(make_system(spec), 0)
    threshold = abs(z0.q[0] - z0.q[1]) - FD_STEP / 2
    path = workdir / "near-collision.json"
    path.write_text(json.dumps(dict(spec, collision_threshold=threshold)))

    def verify(checks):
        return main(["verify", "--system", str(path), "--checks", checks,
                     "--samples", "1", "--t-final", "0.01",
                     "--out", str(workdir / "near-collision-report.json")])

    assert verify("noether") == 0
    assert verify("flow") == 4
    assert "pairwise separation" in capsys.readouterr().err


def test_missing_file_is_io_error(workdir):
    assert main(["verify", "--system", str(workdir / "nope.json")]) == 1
    assert main(["solve-cc", "--system", str(workdir / "nope.json")]) == 1


def test_integrate_damped_oscillator_csv(workdir):
    out = workdir / "traj.csv"
    code = main(["integrate", "--system", str(workdir / "damped.json"),
                 "--t-final", "10", "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    traj = read_trajectory_csv(str(out))
    gamma, omega = 0.05, math.sqrt(1 - 0.05 ** 2)
    q_exact = np.exp(-gamma * traj.times) * (np.cos(omega * traj.times)
                                             + (gamma / omega) * np.sin(omega * traj.times))
    assert np.max(np.abs(traj.qs[:, 0] - q_exact)) < 1e-6
    header = out.read_text().splitlines()[0]
    assert header == "t,q_1,p_1,H,J,K,int_theta"


def test_trajectory_csv_round_trip(tmp_path):
    system = damped_oscillator(0.1)
    traj = integrate(system.field, system.c, PhasePoint([1.0], [0.0]), 0.5, 1e-2)
    path = tmp_path / "roundtrip.csv"
    write_trajectory_csv(str(path), traj)
    back = read_trajectory_csv(str(path))
    assert back.times == pytest.approx(traj.times)
    assert back.qs == pytest.approx(traj.qs)
    assert back.ps == pytest.approx(traj.ps)
    assert back.int_theta == pytest.approx(traj.int_theta)


def test_trajectory_csv_round_trip_multidimensional(tmp_path):
    from scalesym import NBodySpec, momentum_from_config, nbody_system
    from scalesym.scaling import ScalingAction

    system = nbody_system(NBodySpec((1.0, 1.0), dim=3))
    action = ScalingAction.uniform_dilation(6, 0.5, -1.0)
    q = np.array([0.5, 0, 0, -0.5, 0, 0])
    z0 = PhasePoint(q, momentum_from_config(system, action, 2.0, q))
    traj = integrate(system.hamiltonian_field(), 0.0, z0, 0.2, 1e-2, action=action)
    path = tmp_path / "nbody.csv"
    write_trajectory_csv(str(path), traj)
    back = read_trajectory_csv(str(path))
    assert back.n == 6
    assert back.qs == pytest.approx(traj.qs)
    assert back.momentum == pytest.approx(traj.momentum)
    header = path.read_text().splitlines()[0].split(",")
    assert header[1] == "q_1" and header[6] == "q_6"
    assert header[7] == "p_1" and header[-4:] == ["H", "J", "K", "int_theta"]


def test_verify_damped_oscillator_default_checks(workdir):
    # a conformal benchmark has no action: only the flow check applies
    out = workdir / "verify-damped-all.json"
    code = main(["verify", "--system", str(workdir / "damped.json"),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [c["selector"] for c in doc["checks"]] == ["flow"]


def _two_body_re_doc():
    return {"q": [0.5, 0, 0, -0.5, 0, 0], "p": [1.0, 0, 0, -1.0, 0, 0],
            "xi": 2.0, "residual_cc": 0.0, "residual_full": 0.0,
            "certified": True, "tol": 1e-10,
            "system": {"type": "nbody", "masses": [1, 1], "dim": 3}}


def test_homothetic_two_body(workdir):
    re_path = workdir / "two-body-re.json"
    re_path.write_text(json.dumps(_two_body_re_doc()))
    out = workdir / "homothetic.json"
    code = main(["homothetic", "--re", str(re_path), "--t-final", "1",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["homothetic_deviation"] <= 1e-6


def test_homothetic_fixtures_certify_at_zero_residual():
    # homothetic re-certifies q and xi; both fixtures earn their flag exactly.
    doc = _two_body_re_doc()
    built = cli.make_system(doc["system"])
    q = np.asarray(doc["q"], float)
    for xi, p in ((2.0, doc["p"]), (-2.0, [-1.0, 0, 0, 1.0, 0, 0])):
        re = certify_relative_equilibrium(built.system, built.action, q, xi)
        assert re.certified and re.residual_full == 0.0
        assert list(re.p) == p


def test_homothetic_recertifies_a_tampered_equilibrium(workdir):
    re_path = workdir / "re-tampered.json"
    assert main(["solve-cc", "--system", str(workdir / "nbody3.json"),
                 "--init", str(workdir / "triangle-perturbed.csv"),
                 "--out", str(re_path)]) == 0
    doc = json.loads(re_path.read_text())
    assert doc["certified"]
    doc["q"][0] += 0.3  # the flag is left in place
    re_path.write_text(json.dumps(doc))
    code = main(["homothetic", "--re", str(re_path), "--t-final", "0.1",
                 "--dt", "1e-3", "--out", str(workdir / "h-tampered.json")])
    assert code == 4


def test_homothetic_rejects_a_q_of_the_wrong_length(workdir):
    doc = _two_body_re_doc()
    doc["q"] = doc["q"][:5]
    re_path = workdir / "short-re.json"
    re_path.write_text(json.dumps(doc))
    code = main(["homothetic", "--re", str(re_path), "--t-final", "0.1",
                 "--out", str(workdir / "h-short.json")])
    assert code == 1


BAD_NUMBERS = {
    "t-final-not-a-multiple-of-dt": ["integrate", "--system", "damped.json",
                                     "--t-final", "0.15", "--dt", "0.1",
                                     "--out", "bad.csv"],
    "negative-dt": ["integrate", "--system", "damped.json", "--dt", "-1",
                    "--out", "bad.csv"],
    "step-count-overflow": ["integrate", "--system", "damped.json",
                            "--t-final", "1e300", "--dt", "1e-300", "--out", "bad.csv"],
    "zero-samples": ["verify", "--system", "nbody3.json", "--samples", "0",
                     "--out", "bad.json"],
    "zero-flow-window": ["verify", "--system", "nbody3.json", "--checks", "flow",
                         "--t-final", "0", "--out", "bad.json"],
    "xi-not-a-number": ["homothetic", "--re", "re-bad-xi.json", "--out", "bad.json"],
    "q-not-numbers": ["homothetic", "--re", "re-bad-q.json", "--out", "bad.json"],
}


@pytest.mark.parametrize("argv", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
def test_bad_numbers_exit_1_with_one_error_line(workdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(workdir)
    doc = _two_body_re_doc()
    (workdir / "re-bad-xi.json").write_text(json.dumps(doc | {"xi": "abc"}))
    (workdir / "re-bad-q.json").write_text(json.dumps(doc | {"q": ["a"] * 6}))
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


NBODY = {"type": "nbody", "masses": [1.0, 1.0], "dim": 2}
POWER_LAW = {"type": "homogeneous", "alpha": -1.0, "n": 2}
BAD_SPECS = {
    "mass-not-a-number": NBODY | {"masses": [1.0, "x"]},
    "mass-nan": NBODY | {"masses": [1.0, float("nan")]},
    "mass-infinite": NBODY | {"masses": [1.0, float("inf")]},
    "masses-not-a-list": NBODY | {"masses": 5},
    "no-masses": NBODY | {"masses": []},
    "one-mass": NBODY | {"masses": [1.0]},
    "dim-not-a-number": NBODY | {"dim": "x"},
    "dim-not-an-integer": NBODY | {"dim": 2.7},
    "collision-threshold-not-a-number": NBODY | {"collision_threshold": "x"},
    "action-not-a-dict": NBODY | {"action": 5},
    "action-c-not-a-number": NBODY | {"action": {"c": "x"}},
    "action-weights-not-numbers": NBODY | {"action": {"weights": "x", "c": 0.5}},
    "friction-not-a-number": {"type": "damped-oscillator", "b": "x"},
    "z0-not-numbers": {"type": "damped-oscillator", "b": 0.1, "z0": "x"},
    "mu-not-a-number": {"type": "anisotropic-kepler", "mu": "x"},
    "alpha-not-a-number": POWER_LAW | {"alpha": "x"},
    "n-not-a-number": POWER_LAW | {"n": "x"},
    "mass-matrix-not-symmetric": POWER_LAW | {"mass_matrix": [[1, 2], [0, 1]]},
    "mass-matrix-wrong-shape": POWER_LAW | {"n": 3, "mass_matrix": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize("spec", list(BAD_SPECS.values()), ids=list(BAD_SPECS))
def test_bad_spec_values_exit_1_with_one_error_line(workdir, capsys, spec):
    (workdir / "bad-spec.json").write_text(json.dumps(spec))
    assert main(["verify", "--system", str(workdir / "bad-spec.json"),
                 "--checks", "symplectic", "--out", str(workdir / "bad.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_homothetic_past_blowup_window(workdir):
    doc = _two_body_re_doc()
    doc["xi"] = -2.0
    doc["p"] = [-1.0, 0, 0, 1.0, 0, 0]
    re_path = workdir / "contracting-re.json"
    re_path.write_text(json.dumps(doc))
    code = main(["homothetic", "--re", str(re_path), "--t-final", "1",
                 "--dt", "1e-3", "--out", str(workdir / "h2.json")])
    assert code == 4


def test_solve_cc_probe_sampler_failure_is_spec_error(workdir, capsys):
    # Five collinear unit masses: at seed 0 the verifier's probe sampler
    # draws no configuration separated by its minimum distance.
    spec = workdir / "nbody5.json"
    spec.write_text(json.dumps({"type": "nbody", "masses": [1] * 5, "dim": 2}))
    code = main(["solve-cc", "--system", str(spec), "--collinear", "--seed", "0",
                 "--out", str(workdir / "re5.json")])
    assert code == 1
    assert capsys.readouterr().err.count("error:") == 1


def test_integrate_head_on_collision_exit_code(workdir, capsys):
    spec = workdir / "head-on.json"
    spec.write_text(json.dumps({"type": "nbody", "masses": [1, 1], "dim": 1,
                                "collision_threshold": 0.01,
                                "z0": [-0.5, 0.5, 0.0, 0.0]}))
    code = main(["integrate", "--system", str(spec), "--t-final", "1",
                 "--dt", "1e-3", "--out", str(workdir / "head-on.csv")])
    assert code == 4
    assert "under threshold 1.000e-02" in capsys.readouterr().err


def test_spec_error_prints_one_stderr_line(workdir):
    # A subprocess, because pytest's log capture would hide a second line
    # written through the logging module.
    spec = workdir / "nbody5-line.json"
    spec.write_text(json.dumps({"type": "nbody", "masses": [1] * 5, "dim": 1}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "SCALESYM_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "scalesym.cli", "solve-cc", "--system", str(spec),
         "--collinear", "--seed", "0", "--out", str(workdir / "re5.json")],
        capture_output=True, text=True, env=env, cwd=workdir, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# --- where the scaling-symmetry verifier runs --------------------------------

VERIFIER_CALLS = {
    "solve-cc": (["solve-cc", "--system", "nbody3.json", "--init",
                  "triangle-perturbed.csv", "--out", "re.json"], 1),
    "verify": (["verify", "--system", "nbody3.json", "--t-final", "0.01",
                "--out", "verify.json"], 1),
    "verify-noether-flow": (["verify", "--system", "nbody3.json", "--checks",
                             "noether,flow", "--t-final", "0.01",
                             "--out", "verify.json"], 0),
    "integrate": (["integrate", "--system", "nbody3.json", "--init", "z0.csv",
                   "--t-final", "0.01", "--out", "traj.csv"], 0),
    "homothetic": (["homothetic", "--re", "two-body-re.json", "--t-final",
                    "0.01", "--out", "homothetic.json"], 0),
}


@pytest.fixture
def command_inputs(workdir, monkeypatch):
    """workdir as the working directory, with a start z0.csv for the planar
    3-body spec and a certified two-body relative equilibrium."""
    monkeypatch.chdir(workdir)
    z0 = np.concatenate((lagrange_triangle([1.0, 1.0, 1.0], 1.0), np.zeros(6)))
    np.savetxt("z0.csv", z0[None, :], delimiter=",")
    (workdir / "two-body-re.json").write_text(json.dumps(_two_body_re_doc()))
    return workdir


@pytest.mark.parametrize("argv, calls", list(VERIFIER_CALLS.values()),
                         ids=list(VERIFIER_CALLS))
def test_verifier_runs_only_where_its_verdict_is_read(command_inputs, monkeypatch,
                                                      argv, calls):
    seen = []
    verify = systems.verify_scaling_symmetry

    def counting_verify(*args, **kwargs):
        seen.append(kwargs.get("samples"))
        return verify(*args, **kwargs)

    for module in (systems, equilibria):
        monkeypatch.setattr(module, "verify_scaling_symmetry", counting_verify)
    assert main(argv) == 0
    assert seen == [32] * calls


@pytest.mark.parametrize("name", ["integrate", "homothetic"])
def test_samples_is_not_read_where_nothing_verifies(command_inputs, name):
    # zero probes fail the verifier (see BAD_NUMBERS), which these never run
    argv, _ = VERIFIER_CALLS[name]
    assert main(argv + ["--samples", "0"]) == 0


def test_integrate_and_homothetic_run_on_six_collinear_bodies(workdir):
    # The verifier's probe sampler draws no separated configuration of six
    # collinear bodies; neither command reads its verdict, so neither fails.
    spec = {"type": "nbody", "masses": [1] * 6, "dim": 1}
    q0 = np.linspace(-2.5, 2.5, 6)
    (workdir / "line6.json").write_text(json.dumps(dict(
        spec, z0=list(q0) + [0.0] * 6)))
    assert main(["integrate", "--system", str(workdir / "line6.json"),
                 "--t-final", "0.01", "--out", str(workdir / "line6.csv")]) == 0
    assert len(read_trajectory_csv(workdir / "line6.csv")) == 11

    re = solve_central_configuration(nbody_system(NBodySpec((1.0,) * 6, dim=1)),
                                     kepler_action(6), q0, verify_symmetry=False)
    (workdir / "line6-re.json").write_text(json.dumps(
        {"q": list(re.q), "xi": re.xi, "system": spec}))
    out = workdir / "line6-homothetic.json"
    assert main(["homothetic", "--re", str(workdir / "line6-re.json"),
                 "--t-final", "0.1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["homothetic_deviation"] <= 1e-6
