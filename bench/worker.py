"""One workload process: set up, warm up, then timed passes until time is up.

Started by run.py in a fresh interpreter with the BLAS thread count and
PYTHONPATH already set, so ``peak_rss_mb`` is this process's own peak and
``setup_s`` runs from the moment run.py spawned it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --spawned T --work DIR --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MIN_PASSES = 3
MAX_MEASURE_SECONDS = 120.0  # stop early rather than overrun the 180 s run limit
RTOL = 1e-12  # output agreement with the reference, relative
PERTURBATION = 1e-9  # the self-check perturbs one checked output by this much
# Median time of one calibrate() call on the development machine (2 vCPUs,
# Intel Xeon 2.1 GHz); wall_ref_s is in seconds at that speed.
CALIBRATION_REF_S = 0.012
CALIBRATION_DATA = np.random.default_rng(12345).normal(size=(512, 512))
CALIBRATION_INDICES = list(itertools.combinations_with_replacement(range(0, 512, 4), 2))

# Baseline table of the ROADMAP "Recent" section (single runs, 2 cores):
# span name, attrs the call must match, seconds.
ROADMAP_BASELINE = [
    ("breuer_major.bm_bound_exact", {"q": 2, "n": 4096}, 1.70),
    ("breuer_major.bm_bound_exact", {"q": 3, "n": 128}, 2.2),
    ("bounds.gamma_bound_single", {"d": 512}, 3.77),
    ("bounds.gamma_bound_single", {"d": 256}, 0.91),
    ("tensors.from_dense", {"entries": 512 * 512, "q": 2}, 0.74),
    ("simulate.sample_Zn", {"n": 256, "count": 100_000}, 2.0),
]


def compare(values: dict, reference: dict, seeded, check_all: bool) -> list[str]:
    """Differences between an output and its reference beyond RTOL."""
    problems = []
    keys = [k for k in reference if check_all or not seeded(k)]
    for key in keys:
        if key not in values:
            problems.append(f"{key}: missing from the output")
            continue
        got, want = values[key], reference[key]
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            if not workloads.rel_close(got, want, RTOL):
                problems.append(f"{key}: {got!r} != reference {want!r}")
        elif got != want or type(got) is not type(want):
            problems.append(f"{key}: {got!r} != reference {want!r}")
    if check_all:
        problems.extend(f"{k}: not in the reference" for k in values if k not in reference)
    return problems


def calibrate() -> float:
    """Time a fixed piece of work that uses no steinchaos code and no BLAS.

    The shared machine's speed drifts by up to a factor of 2 within a
    minute, for Python and numpy code alike.  The calibration runs before
    every timed operation and after the last one of a pass; a pass's time
    divided by the mean of its calibration times, times CALIBRATION_REF_S,
    is its time at the reference speed.  A change to steinchaos moves the
    operation times and leaves the calibration alone.  The work resembles
    the workloads': a dict keyed by index tuples filled from and written
    back to a 2 MB array, a float loop, and sorts.
    """
    started = time.perf_counter()
    table = {}
    for index in CALIBRATION_INDICES:
        table[index] = float(CALIBRATION_DATA[index]) * 2.0
    dense = np.zeros_like(CALIBRATION_DATA)
    for index, value in table.items():
        dense[index] = value
        dense[index[::-1]] = value
    total = 0.0
    for i in range(12000):
        total += math.sin(i * 1e-3)
    for _ in range(4):
        (dense.ravel() * 1.0001).sort()
    return time.perf_counter() - started


def environment(blas_threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(blas_threads),
    }


class Runner:
    def __init__(self, workload, tracer, check_all: bool):
        self.workload = workload
        self.tracer = tracer
        self.check_all = check_all  # at the default seed every output has a reference
        self.reference = None
        path = REFERENCE_DIR / f"{workload.name}.json"
        if path.is_file():
            self.reference = json.loads(path.read_text())["ops"]
        self.first_raw: dict[str, bytes] = {}
        self.first_values: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_counter = 0

    def run_pass(self, traced: bool) -> dict:
        op_seconds = {}
        csv_bytes = 0
        first_span = len(self.tracer.spans) if self.tracer else 0
        calibration = []
        for op in self.workload.ops:
            prepared = op.prepare()
            self.op_counter += 1
            calibration.append(calibrate())
            if traced:
                self.tracer.install(self.op_counter)
            started = time.perf_counter()
            try:
                result = op.run(prepared)
                error = None
            except Exception as exc:  # an operation that raises is a counted failure
                error = f"{type(exc).__name__}: {exc}"
            finally:
                op_seconds[op.name] = time.perf_counter() - started
                if traced:
                    self.tracer.uninstall()
            self.attempted += 1
            if error:
                problems = [error]
            else:
                try:
                    values, raw = op.collect(result)
                    csv_bytes += len(raw) if op.cli else 0
                    problems = self.check(op, values, raw)
                except (OSError, KeyError, ValueError) as exc:  # output missing or malformed
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            self.failed += bool(problems)
            self.failures.extend(f"{op.name}: {p}" for p in problems)
        calibration.append(calibrate())
        seconds = sum(op_seconds.values())
        record = {"traced": traced, "seconds": seconds,
                  "ref_seconds": seconds * CALIBRATION_REF_S / statistics.fmean(calibration),
                  "ops": op_seconds,
                  "calibration": calibration, "csv_bytes": csv_bytes}
        if traced:
            record["spans"] = (first_span, len(self.tracer.spans))
        return record

    def check(self, op, values: dict, raw: bytes) -> list[str]:
        problems = list(op.checks(values))
        if self.reference is not None:
            problems += compare(values, self.reference[op.name], op.seeded, self.check_all)
        if op.name not in self.first_raw:
            self.first_raw[op.name] = raw
            self.first_values[op.name] = values
        elif raw != self.first_raw[op.name]:
            problems.append("output bytes differ from the first pass")
        return problems

    def self_check(self) -> list[str]:
        """A checked float output moved by 1e-9 relative must fail ``check``,
        the test whose non-empty result ``run_pass`` counts in ``failed``."""
        if self.reference is None:
            return ["no reference outputs for this workload"]
        for op in self.workload.ops:
            values = self.first_values.get(op.name)
            if values is None:
                continue
            for key, want in self.reference[op.name].items():
                if isinstance(want, float) and want != 0.0 and not op.seeded(key):
                    moved = dict(values, **{key: values[key] * (1.0 + PERTURBATION)})
                    if self.check(op, moved, self.first_raw[op.name]):
                        return []
                    return [f"perturbing {op.name} {key} by {PERTURBATION:g} went unnoticed"]
        return ["no seed-independent float output to perturb"]


def traced_summary(tracer, passes, workload) -> tuple[dict, list[str], list]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass, problems = [], []
    for p in traced:
        first, last = p["spans"]
        per_pass.append(tracing.pass_metrics(tracer.spans, first, last, p["seconds"], p["csv_bytes"]))
        calls = tracing.layer_calls(tracer.spans, first, last)
        problems += [f"layer {layer} has {calls[layer]} spans but this workload bypasses it"
                     for layer in workload.bypasses if calls[layer]]
        problems += [f"layer {layer} has no spans but this workload stresses it"
                     for layer in workload.stresses if not calls[layer]]
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["ref_seconds"] for p in traced)
        / statistics.median(p["ref_seconds"] for p in plain) - 1.0)
    problems += [f"unwrapped binding {name}" for name in tracer.missed_bindings()]

    baseline = []
    for name, attrs, roadmap_s in ROADMAP_BASELINE:
        durations = [s[3] - s[2] for s in tracer.spans
                     if s[1] == name and s[5] and all(s[5].get(k) == v for k, v in attrs.items())]
        if durations:
            measured = statistics.median(durations)
            baseline.append({"span": name, "attrs": attrs, "roadmap_s": roadmap_s,
                             "measured_s": measured, "ratio": measured / roadmap_s,
                             "calls": len(durations)})
    return metrics, sorted(set(problems)), baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import steinchaos  # already loaded by workloads; imports count as set-up

    expected = (ROOT / "src" / "steinchaos").resolve()
    if Path(steinchaos.__file__).resolve().parent != expected:
        print(f"error: imported steinchaos from {steinchaos.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, Path(args.work))
    for op in workload.warmup:
        op.collect(op.run(op.prepare()))
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    # the calibration right after set-up scales it as the passes are scaled
    setup = {"setup_s": setup_s, "setup_ref_s": setup_s * CALIBRATION_REF_S
             / statistics.median(calibrate() for _ in range(5))}
    result_path = Path(args.result)
    if args.setup_only:
        result_path.write_text(json.dumps(setup))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workload, tracer, args.seed == workloads.DEFAULT_SEED)
    passes = []
    started = last = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(traced))
        now = time.perf_counter()
        elapsed, step = now - started, now - last
        last = now
        # stop before a pass, checks included, that would end after --seconds
        if len(passes) >= MIN_PASSES and elapsed + step > args.seconds:
            break
        if len(passes) >= 2 and elapsed + step > MAX_MEASURE_SECONDS:
            break

    integrity = runner.self_check()
    out = {
        **setup,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "wall_s": statistics.median(p["seconds"] for p in passes if not p["traced"]),
        "wall_ref_s": statistics.median(p["ref_seconds"] for p in passes if not p["traced"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:50],
        "env": environment(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }
    if tracer:
        metrics, problems, baseline = traced_summary(tracer, passes, workload)
        integrity += problems
        out.update(layer_metrics=metrics, baseline_check=baseline,
                   circulant_fallbacks=tracing.circulant_fallbacks(tracer.spans))
        spans_path = result_path.with_name(result_path.stem + ".spans.json")
        spans_path.write_text(json.dumps(
            {"fields": ["op", "name", "start", "end", "parent", "attrs"], "spans": tracer.spans}))
    out["integrity"] = integrity
    result_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
