"""Golden artifacts: CLI outputs, byte for byte.

Four runs on a planar 3-body system, plus ``verify`` on the anisotropic
Kepler problem and on the damped oscillator, whose flow checks go through
single-body and conformal (c != 0) fields, plus two ``solve-cc`` runs from
random starts of 10 equal masses in 3-D: seed 1 certifies, seed 13 exits 2
with "damping overflow", and its diagnostics are pinned too, plus
``verify --checks flow,noether`` on the 3-body spec, whose two flow-level
checks read one trajectory in the order requested, plus the four symmetry
checks of ``verify`` on a 3-body spec whose action has weight 2 and on a
power law with a non-diagonal mass matrix and the derived exponent
c = (2 + alpha)/2, plus ``verify --checks flow,noether`` on that weight-2
spec, whose Noether drift reads a J that is not p . q, plus ``integrate``
of 10 equal masses in 3-D from a fixed separated start, whose CSV carries
the many-body kernel's H at every node, plus the four symmetry checks of
``verify`` on 20 bodies in 3-D, on a power law under a per-coordinate
weighted dilation and on a 3-body spec whose c is mis-set (both exit 3,
with invariance failed), and on the Kepler spec, whose default probe draws read H
and redraw where it is singular or huge.  Identical (config, seed) pairs
must keep producing byte-identical artifacts across refactors.  The first four digests were recorded from the build before
the field contract moved from PhasePoint arguments to (q, p) arrays, the
next two from the build before flow_jacobian integrated its probes as one
stack, the next two from the build before the solver's Jacobian evaluated
its probes as one stack, the next from the build before ``verify``
integrated its start once for both checks, the next two from the build
before the verifier's probe loop moved onto bare arrays, the next from
the build before ``make_system`` stopped running the verifier, the next
from the build before RK4 nodes read H and its gradient from one
evaluation, and the last four from the build before the verifier ran
its checks on one probe stack; a change that alters any artifact must say so and re-record
them.  Paths
are relative to the working directory because the artifacts embed them.
"""

import hashlib
import json

import pytest

from scalesym.cli import main

SPECS = {
    "spec.json": {"type": "nbody", "masses": [1.0, 1.0, 2.0], "dim": 2},
    "kepler.json": {"type": "anisotropic-kepler", "mu": 2.0},
    "oscillator.json": {"type": "damped-oscillator", "b": 0.3},
    "equal10.json": {"type": "nbody", "masses": [1.0] * 10, "dim": 3},
    "weighted.json": {"type": "nbody", "masses": [1, 2, 0.5], "dim": 2,
                      "action": {"weights": 2, "c": 1.0, "b": -2.0}},
    "homogeneous.json": {"type": "homogeneous", "alpha": -1.5, "n": 3, "k": -2,
                         "mass_matrix": [[2, .3, 0], [.3, 1, .1], [0, .1, 1.5]]},
    "bodies20.json": {"type": "nbody", "masses": [0.5 + 0.1 * k for k in range(20)],
                      "dim": 3},
    "per-coordinate.json": {"type": "homogeneous", "alpha": 2, "n": 4, "k": 0.5,
                            "action": {"weights": [1, 2, 0.5, 1.5], "c": 1.5,
                                       "b": 2}},
    "misset-c.json": {"type": "nbody", "masses": [1.0, 1.0, 2.0], "dim": 2,
                      "action": {"c": 0.6, "b": -1.0}},
}
SYMMETRY_CHECKS = "symplectic,invariance,momentum,scaling-function"
# A Lagrange triangle for masses (1, 1, 2), perturbed by a few percent.
INIT_Q = "-0.52,-0.21,0.47,-0.23,0.02,0.22"
# A start near the triangle with a small rotating momentum.
INIT_Z = ("-0.5,-0.2165,0.5,-0.2165,0.0,0.2165,"
          "0.3,-0.6,0.25,0.55,-0.275,0.025")
# Ten bodies at least 0.8 apart in 3-D, then their momenta.
INIT_Z10 = ("1.24,0.91,1.13,0.07,1.25,-1.36,-1.41,-1.44,-0.74,-0.75,-0.94,0.2,"
            "-1.38,0.27,-1,0.53,-1.44,-0.57,1.32,0.12,0.93,0.47,0.33,-0.93,"
            "0.22,-1.38,0.9,1.38,1.06,-1.35,"
            "-0.13,-0.15,-0.31,0.1,0.24,-0.15,0.29,0.24,-0.3,0.21,0.31,-0.24,"
            "0.06,0.11,0.09,-0.32,0.13,0.11,0.26,0.24,-0.14,0.18,0.29,0.31,"
            "-0.27,-0.38,0.12,-0.23,0.05,0.36")

GOLDEN = {
    "solve-cc": "22080761e5a5330a08ed38621f2f6c72fe11188f82d03871c3a072406afbd90f",
    "integrate": "0363046bdb18cf742911bbb97d71f9a0e955821f30ce0c82394887d6d215d3b7",
    "verify": "03ca183a3a527bafd63603daf6508349ba55e8893a3c3fbba9166dcedbc79cf2",
    "homothetic": "df357344bb2df0c4f59c17bd5008c241d2a1df3bf155858db62124bc97737e40",
    "verify-kepler": "8882b9ef6b8dac91cdb490d88de80fce94cb39f6b57bbb1864ebd0ee43bac378",
    "verify-oscillator": "7ad4b7b0efd854f204adf114d057c0f3e342170b72fee0f12c5e611f634870f8",
    "solve-cc-random-seed1": "58daf8359680c5a1d49e3f007a2daf19f3ed5f8553248f4c2e09bebc4901e3a5",
    "solve-cc-random-seed13": "0c5df59b714a40f334bb7fdb9eea0d73eaa6757cc4d55cd70337c589d5171699",
    "verify-flow-noether": "9fe0974679dd6e0d442cb5e19626af7307a4cb73ac535d33cfc3864a42008e81",
    "verify-weighted": "b3df08dbec4b3978897fe13415d5ca974c84d4a0148c7408a4946d6ba44da7c3",
    "verify-homogeneous": "60964f6770a7cffdf5c086e7f804bbdb633533b56a2f49a2fca076b1b775fc03",
    "verify-weighted-flow-noether": "62137a4425223e2f4a5ef1ba7fe96f4d31d6b1835c238fd3bc9f386f1105ea1c",
    "integrate-equal10": "056163f7b1940ba31d2869be4aea267e6fd93f510a456b02b3675f8af46f0321",
    "verify-bodies20": "74fb387a9a21cf32cdff0f426ff2183ce884e910887627ee72c074c260670305",
    "verify-per-coordinate": "2b2ec6b80f5506e1612588f82d08e2705f7f218dbd7a8fe8b61f6003e899616f",
    "verify-misset-c": "ae1fb8e4f6689aa1f9c89ccd90246a1d689cb65567b62d0e6fc9279558fc65f2",
    "verify-kepler-symmetry": "10f863edc0b6b8ef90c7cfc6e857b4cab73620e052b613f460fcdb9920873a85",
}

RUNS = {
    "solve-cc": ["solve-cc", "--system", "spec.json", "--init", "q0.csv",
                 "--out", "re.json"],
    "integrate": ["integrate", "--system", "spec.json", "--init", "z0.csv",
                  "--t-final", "0.2", "--dt", "0.001", "--out", "traj.csv"],
    "verify": ["verify", "--system", "spec.json", "--t-final", "0.01",
               "--out", "verify.json"],
    "homothetic": ["homothetic", "--re", "re.json", "--t-final", "0.1",
                   "--out", "homothetic.json"],
    "verify-kepler": ["verify", "--system", "kepler.json", "--t-final", "0.05",
                      "--out", "verify-kepler.json"],
    "verify-oscillator": ["verify", "--system", "oscillator.json",
                          "--t-final", "0.2", "--out", "verify-oscillator.json"],
    "solve-cc-random-seed1": ["solve-cc", "--system", "equal10.json", "--seed", "1",
                              "--out", "s1.json"],
    "solve-cc-random-seed13": ["solve-cc", "--system", "equal10.json", "--seed", "13",
                               "--out", "s13.json"],
    "verify-flow-noether": ["verify", "--system", "spec.json", "--checks", "flow,noether",
                            "--t-final", "0.02", "--out", "verify-reverse.json"],
    "verify-weighted": ["verify", "--system", "weighted.json", "--checks",
                        SYMMETRY_CHECKS, "--out", "verify-weighted.json"],
    "verify-homogeneous": ["verify", "--system", "homogeneous.json", "--checks",
                           SYMMETRY_CHECKS, "--out", "verify-homogeneous.json"],
    "verify-weighted-flow-noether": ["verify", "--system", "weighted.json", "--checks",
                                     "flow,noether", "--t-final", "0.02",
                                     "--out", "verify-weighted-flow.json"],
    "integrate-equal10": ["integrate", "--system", "equal10.json", "--init", "z10.csv",
                          "--t-final", "0.2", "--dt", "0.001", "--out", "traj10.csv"],
    "verify-bodies20": ["verify", "--system", "bodies20.json", "--checks",
                        SYMMETRY_CHECKS, "--out", "verify-bodies20.json"],
    "verify-per-coordinate": ["verify", "--system", "per-coordinate.json", "--checks",
                              SYMMETRY_CHECKS, "--out", "verify-per-coordinate.json"],
    "verify-misset-c": ["verify", "--system", "misset-c.json", "--checks",
                        SYMMETRY_CHECKS, "--out", "verify-misset-c.json"],
    "verify-kepler-symmetry": ["verify", "--system", "kepler.json", "--checks",
                               SYMMETRY_CHECKS, "--out", "verify-kepler-symmetry.json"],
}
# Every run exits 0 except these: a solver that fails, and two symmetry
# reports whose invariance check fails.
EXIT_CODES = {"solve-cc-random-seed13": 2, "verify-per-coordinate": 3,
              "verify-misset-c": 3}


def artifact_digests(workdir) -> dict:
    """Run the commands in workdir and return each artifact's SHA-256."""
    for name, spec in SPECS.items():
        (workdir / name).write_text(json.dumps(spec))
    (workdir / "q0.csv").write_text(INIT_Q + "\n")
    (workdir / "z0.csv").write_text(INIT_Z + "\n")
    (workdir / "z10.csv").write_text(INIT_Z10 + "\n")
    digests = {}
    for name, argv in RUNS.items():
        assert main(argv) == EXIT_CODES.get(name, 0), name
        out = workdir / argv[argv.index("--out") + 1]
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.fixture
def digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return artifact_digests(tmp_path)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_artifact_is_byte_identical(digests, name):
    assert digests[name] == GOLDEN[name]
