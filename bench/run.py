"""steinchaos benchmark: two workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, tracing off

NAME is one of the workloads listed in BENCHMARK.json, chi2-oracles and
bm-rates-mc (see bench/README.md for what each stresses and bypasses).
Load shape: closed loop, one process, one caller, operations one after
another.

With ``--trace 0`` the run reports the end-to-end metrics ``wall_ref_s``
(median time of one pass over the workload's operations, scaled to a
reference machine speed by a calibration timed before every operation),
``setup_s`` (median over fresh processes of the time from spawn to the
first timed operation, scaled by a calibration timed right after it; the
unscaled ``wall_s`` and ``setup_s`` are printed beside them), ``peak_rss_mb`` (peak resident memory of the workload process)
and ``pass_ratio`` (operations that passed every check over operations
attempted; ``fail_ratio`` is printed beside it).  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A result file with
the environment record is written to .bench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"  # its workload names are those of workloads.BUILDERS
# Fresh processes whose set-up time is measured, half of the set-up-only ones
# before the timed process and half after it, so that one slow spell of the
# machine does not set the median.
SETUP_PROCESSES = 5
RUN_LIMIT_SECONDS = 175.0
UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def blas_threads() -> int:
    """BLAS threads for the workload processes: at most 2, never above nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def git_commit() -> str:
    """HEAD's commit from the loose ref or packed-refs, without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head  # detached HEAD holds the commit itself
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            commit, _, name = line.partition(" ")
            if name == ref:
                return commit
    return "unknown"


def machine(threads: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "blas_threads_set": threads,
    }


def spawn(args, work: Path, result: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion and return its result file."""
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_SECONDS
    threads = blas_threads()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    scratch = work.with_name(work.name + ".result.json")
    try:
        extra = 0 if args.trace else SETUP_PROCESSES - 1
        setups = [spawn(args, work, scratch, env, deadline, True)
                  for _ in range(extra // 2)]
        main = spawn(args, work, results_dir / f"{stem}.json", env, deadline, False)
        setups.append({k: main[k] for k in ("setup_s", "setup_ref_s")})
        setups += [spawn(args, work, scratch, env, deadline, True)
                   for _ in range(extra - extra // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        scratch.unlink(missing_ok=True)
    main["setup_s_runs"] = setups
    main["machine"] = machine(threads)
    main["workload"] = args.workload
    main["seed"] = args.seed
    (results_dir / f"{stem}.json").write_text(json.dumps(main, indent=1))

    correct = main["failed"] == 0 and not main["integrity"]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(main["layer_metrics"].items())}
    else:
        values = {
            "wall_ref_s": main["wall_ref_s"],
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "pass_ratio": 1.0 - main["failed"] / main["attempted"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
            "metrics": metrics, "detail": main}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def report(name: str, outcome: dict, trace: int) -> None:
    detail = outcome["detail"]
    passes = detail["passes"]
    print(f"workload {name}: seed {detail['seed']}, {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), BLAS threads "
          f"{detail['env']['blas_threads']}, nproc {detail['machine']['nproc']}")
    for key, metric in outcome["metrics"].items():
        print(f"  {key:<46} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        print(f"  {'wall_s':<46} {detail['wall_s']:.6g} s (unscaled)")
        print(f"  {'setup_s unscaled':<46} "
              f"{statistics.median(s['setup_s'] for s in detail['setup_s_runs']):.6g} s")
        print(f"  {'fail_ratio':<46} {outcome['failed'] / outcome['attempted']:.6g} ratio "
              f"({outcome['failed']}/{outcome['attempted']} operations failed)")
    if "circulant_fallbacks" in detail:
        print(f"  circulant-embedding fallbacks: {detail['circulant_fallbacks']}")
    for line in detail["failures"][:10] + detail["integrity"][:10]:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = tuple(w["name"] for w in json.loads(SPEC.read_text())["workloads"])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "steinchaos" / "__init__.py").is_file():
        print(f"error: no steinchaos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(name, outcomes[name], args.trace)
    if len(names) == 1:
        outcome = outcomes[names[0]]
        summary = {k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}.{k}": m for n, o in outcomes.items() for k, m in o["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
