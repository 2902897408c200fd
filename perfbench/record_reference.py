"""Record the reference outputs the benchmark checks every execution against.

    python3 perfbench/record_reference.py [workload ...]

Runs each named workload (all by default) once and writes
`reference/<name>.json`.  Run it only on a version whose outputs are
accepted; the references in the repository were recorded from the seed
version of the solver.
"""

from __future__ import annotations

import env

env.prepare()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def main(names):
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        env.WORK_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=env.WORK_DIR)
        try:
            ex = workload.execute(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ref = workload.reference_of(ex.output)
        problems = workload.check(ex.output, ref)  # the invariants must hold
        if problems:
            raise SystemExit(f"error: {name} breaks an invariant: {problems}")
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
