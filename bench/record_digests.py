"""Record the reference artifact digests of every pool item.

Usage, from the repository root:

    python3 bench/record_digests.py

Runs every pool variant of every template once and writes
``bench/reference.json``: workload -> op key -> SHA-256 of the artifact.
Run it only when the artifacts are meant to change; ``run.py`` counts any
other difference as artifact drift.  Prints ``workload key exit seconds``
per op.
"""

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads
from run import HERE, ROOT, import_program


def main() -> int:
    cli = import_program().cli
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    reference = {}
    cwd = os.getcwd()
    for workload in workloads.WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        os.chdir(workdir)
        try:
            plan = [(t, j) for t in workload.templates for j in range(t.pool)]
            digests = {}
            for op in workloads.prepare(workdir, plan, cli.main):
                start = time.perf_counter()
                code = cli.main(list(op.argv))
                seconds = time.perf_counter() - start
                digests[op.key] = workloads.digest(workdir / op.out)
                print(f"{workload.name} {op.key} {code} {seconds:.4f}", flush=True)
            reference[workload.name] = digests
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True)
                                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
