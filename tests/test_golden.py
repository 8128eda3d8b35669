"""Golden artifacts: four CLI outputs on a planar 3-body system, byte for byte.

Identical (config, seed) pairs must keep producing byte-identical
artifacts across refactors.  The digests below were recorded from the
build before the field contract moved from PhasePoint arguments to
(q, p) arrays; a change that alters any artifact must say so and
re-record them.  Paths are relative to the working directory because the
artifacts embed them.
"""

import hashlib
import json

import pytest

from scalesym.cli import main

SPEC = {"type": "nbody", "masses": [1.0, 1.0, 2.0], "dim": 2}
# A Lagrange triangle for masses (1, 1, 2), perturbed by a few percent.
INIT_Q = "-0.52,-0.21,0.47,-0.23,0.02,0.22"
# A start near the triangle with a small rotating momentum.
INIT_Z = ("-0.5,-0.2165,0.5,-0.2165,0.0,0.2165,"
          "0.3,-0.6,0.25,0.55,-0.275,0.025")

GOLDEN = {
    "solve-cc": "22080761e5a5330a08ed38621f2f6c72fe11188f82d03871c3a072406afbd90f",
    "integrate": "0363046bdb18cf742911bbb97d71f9a0e955821f30ce0c82394887d6d215d3b7",
    "verify": "03ca183a3a527bafd63603daf6508349ba55e8893a3c3fbba9166dcedbc79cf2",
    "homothetic": "df357344bb2df0c4f59c17bd5008c241d2a1df3bf155858db62124bc97737e40",
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
}


def artifact_digests(workdir) -> dict:
    """Run the four commands in workdir and return each artifact's SHA-256."""
    (workdir / "spec.json").write_text(json.dumps(SPEC))
    (workdir / "q0.csv").write_text(INIT_Q + "\n")
    (workdir / "z0.csv").write_text(INIT_Z + "\n")
    digests = {}
    for name, argv in RUNS.items():
        assert main(argv) == 0, name
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
