"""Per-layer timing: one library call, parent checkout against change checkout.

    python3 tools/layer_time.py --parent DIR --change DIR --out BENCH_name.json \
        [--pairs 10] [--calls 5] [--setup STATEMENTS] \
        "sample_Zn(0.6, 2, 256, 100_000, 5)" ...

Each expression is evaluated with every public name of the ``steinchaos``
package in scope: its public modules and the names it re-exports, and the
names that ``--setup`` binds (run once per process, untimed, to build inputs).
For each pair and expression, each side runs in a fresh process with
``DIR/src`` first on PYTHONPATH and the benchmark's BLAS environment
(``bench/run.py``: OPENBLAS_NUM_THREADS and friends at min(2, CPUs)); the
process makes one warm-up call, then times ``--calls`` calls and reports
their median, then makes one more call under tracemalloc and reports its
peak.  Pairs alternate which side runs first.  The output file holds, per
expression, each side's median and quartiles over the pairs, the pairs the
change won, lost or tied and the gain and bound checks of
``tools/bench_record.py`` (the bound is the one BENCHMARK.json gives
``wall_ref_s``), each side's median tracemalloc peak, every process's call
times, and the benchmark's ``machine`` record.  Standard library and numpy
only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_record import SIDES, compare  # noqa: E402


def _bench_run():
    """bench/run.py as a module, for its BLAS setting and machine record."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# runs in the timed process: argv[1] is the expression, argv[2] the call
# count, argv[3] the setup statements
TIMER = """
import json, statistics, sys, time, tracemalloc
import numpy as np
import steinchaos
import steinchaos.cli  # the one module the package does not import itself
scope = {name: value for name, value in vars(steinchaos).items() if not name.startswith("_")}
exec(sys.argv[3], scope)
code = compile(sys.argv[1], "<expression>", "eval")
eval(code, scope)
seconds = []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    eval(code, scope)
    seconds.append(time.perf_counter() - start)
tracemalloc.start()
eval(code, scope)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"seconds": seconds, "median": statistics.median(seconds),
                  "peak_traced_mb": peak / 2**20,
                  "python": sys.version.split()[0], "numpy": np.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def time_call(checkout: Path, expression: str, calls: int, env: dict, setup: str) -> dict:
    """One fresh process of one checkout: its call times, peak and environment."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TIMER, expression, str(calls), setup],
                          env=dict(env, PYTHONPATH=path), cwd=checkout,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {expression!r} failed in {checkout}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit(checkout: Path) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to write")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs (>= 2)")
    parser.add_argument("--calls", type=int, default=5, help="timed calls per process")
    parser.add_argument("--setup", default="", help="statements run once per process, untimed")
    parser.add_argument("expressions", nargs="+", metavar="EXPRESSION")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.calls < 1:
        parser.error("need --pairs >= 2 and --calls >= 1")

    bench = _bench_run()
    threads = bench.blas_threads()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_ref_s")

    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for expression in args.expressions:
            for side in order:
                result = time_call(checkouts[side], expression, args.calls, env, args.setup)
                runs.append({"pair": pair, "side": side, "expression": expression, **result})
                print(f"pair {pair} {side:<6} {result['median']:.4f} s  {expression}",
                      file=sys.stderr)

    def medians(side: str, expression: str, key: str = "median") -> list[float]:
        return [r[key] for r in runs if (r["side"], r["expression"]) == (side, expression)]

    comparisons = {e: compare(medians("parent", e), medians("change", e), "lower", bound)
                   for e in args.expressions}
    for e, c in comparisons.items():
        peaks = {side: statistics.median(medians(side, e, "peak_traced_mb")) for side in SIDES}
        ratio = peaks["change"] / peaks["parent"] if peaks["parent"] else None
        c["peak_traced_mb"] = dict(peaks, ratio=ratio)
    record = {
        "command": (f"python3 tools/layer_time.py --parent PARENT --change CHANGE "
                    f"--pairs {args.pairs} --calls {args.calls} --setup SETUP EXPRESSION..."),
        "setup": args.setup,
        "order": [f"{r['side']}:pair{r['pair']}:{r['expression']}" for r in runs],
        "commits": {side: commit(path) for side, path in checkouts.items()},
        "layer": comparisons,
        "runs": runs,
        "machine": bench.machine(threads),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for expression, c in comparisons.items():
        print(f"{expression}: parent {c['parent']['median']:.4g} s change "
              f"{c['change']['median']:.4g} s ({c['relative_change']:+.1%}) "
              f"wins {c['change_wins']}/{c['pairs']} gain_rule_met={c['gain_rule_met']} "
              f"peak {c['peak_traced_mb']['parent']:.3g} -> {c['peak_traced_mb']['change']:.3g} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
