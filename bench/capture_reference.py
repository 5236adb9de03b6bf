"""Write bench/reference/<workload>.json: every output of every operation at
the default seed, which run.py then requires to 1e-12 relative.

    python3 bench/capture_reference.py [WORKLOAD ...]

Recapture only when a change is meant to alter results; a change that
claims the same results must pass against the references it found.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(names: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.blas_threads())  # before numpy loads OpenBLAS
    import workloads

    for name in names or workloads.NAMES:
        work = ROOT / ".bench_work" / f"reference-{name}"
        try:
            workload = workloads.build(name, workloads.DEFAULT_SEED, work)
            ops = {}
            for op in workload.ops:
                values, _ = op.collect(op.run(op.prepare()))
                problems = op.checks(values)
                if problems:
                    print(f"error: {name} {op.name}: {problems}", file=sys.stderr)
                    return 1
                ops[op.name] = values
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = BENCH / "reference" / f"{name}.json"
        path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "ops": ops}, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)} ({sum(len(v) for v in ops.values())} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
