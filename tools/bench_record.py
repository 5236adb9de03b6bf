"""Write a BENCH_*.json file from paired parent/change runs of bench/run.py.

    python3 tools/bench_record.py --out BENCH_name.json \
        parent=RUN1 change=RUN2 change=RUN3 parent=RUN4 ...

Each RUN is a directory holding the ``.bench_results/*.json`` files of one
run of ``bench/run.py`` (``--workload all``, or a traced ``--trace 1`` run),
copied out right after that run.  Give the runs in the order they were made:
the k-th parent run and the k-th change run of the same trace setting form
pair k, so alternating which side runs first shows in the recorded order.

For every workload and end-to-end metric of BENCHMARK.json the file holds
each side's median and quartiles over the untraced runs, the relative change
of the median, how many pairs the change won, lost or tied, and the two
checks of a claimed gain and of a regression: the change wins at least nine
tenths of the pairs and its median moves by more than the parent's
interquartile distance; no median worsens by more than the metric's bound.
Beside that comparison, and gating nothing, each side's median of the
unscaled pass time ``wall_s`` and of the calibration times (the speed that
scales ``wall_ref_s``) shows whether a moved ``wall_ref_s`` came from the
operations or from the calibration.  Traced runs add every per-layer metric
of each run and their medians.  Every run keeps its ``machine`` and ``env``
records.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of one untraced result file, as run.py prints them."""
    return {
        "wall_ref_s": result["wall_ref_s"],
        "setup_s": statistics.median(s["setup_ref_s"] for s in result["setup_s_runs"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": 1.0 - result["failed"] / result["attempted"],
    }


def unscaled(result: dict) -> dict | None:
    """The unscaled pass time and the median calibration time of one untraced
    result file, or None for a file without its passes."""
    if "passes" not in result:
        return None
    return {
        "wall_s": result["wall_s"],
        "calibration_s": statistics.median(
            c for p in result["passes"] if not p["traced"] for c in p["calibration"]),
    }


def load_run(order: int, side: str, directory: Path) -> list[dict]:
    """One record per workload result file found in a run directory."""
    files = sorted(p for p in directory.glob("*.json") if not p.name.endswith(".spans.json"))
    if not files:
        raise SystemExit(f"error: no result files in {directory}")
    runs = []
    for path in files:
        result = json.loads(path.read_text())
        traced = "layer_metrics" in result
        runs.append({
            "order": order,
            "side": side,
            "file": path.name,
            "workload": result["workload"],
            "seed": result["seed"],
            "trace": int(traced),
            "correct": result["failed"] == 0 and not result["integrity"],
            "metrics": result["layer_metrics"] if traced else end_to_end(result),
            "unscaled": None if traced else unscaled(result),
            "machine": result["machine"],
            "env": result["env"],
        })
    return runs


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Paired comparison of one metric on one workload."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    before, after = spread(parent), spread(change)
    base = before["median"]
    moved = sign * (after["median"] - base)
    return {
        "parent": before,
        "change": after,
        "relative_change": (after["median"] - base) / base if base else None,
        "pairs": pairs,
        "change_wins": wins,
        "change_losses": losses,
        "ties": pairs - wins - losses,
        "gain_rule_met": wins >= 0.9 * pairs and moved > before["q3"] - before["q1"],
        "bound": bound,
        "within_bound": -moved <= bound * abs(base),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to write")
    parser.add_argument("runs", nargs="+", metavar="SIDE=DIR",
                        help="parent=DIR or change=DIR, in the order the runs were made")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for order, item in enumerate(args.runs):
        side, _, directory = item.partition("=")
        if side not in SIDES or not directory:
            parser.error(f"expected parent=DIR or change=DIR, got {item!r}")
        runs += load_run(order, side, Path(directory))

    def series(side: str, workload: str, trace: int) -> list[dict]:
        return [r for r in runs if (r["side"], r["workload"], r["trace"]) == (side, workload, trace)]

    workloads = [w["name"] for w in spec["workloads"]]
    comparisons, unscaled_medians, layers = {}, {}, {}
    for workload in workloads:
        parent, change = series("parent", workload, 0), series("change", workload, 0)
        if len(parent) >= 2 and len(change) >= 2:
            comparisons[workload] = {
                m["name"]: compare([r["metrics"][m["name"]] for r in parent],
                                   [r["metrics"][m["name"]] for r in change],
                                   m["better"], m["bound"])
                for m in spec["end_to_end"]
            }
            if all(r["unscaled"] for r in parent + change):
                unscaled_medians[workload] = {
                    name: {side: statistics.median(r["unscaled"][name] for r in side_runs)
                           for side, side_runs in (("parent", parent), ("change", change))}
                    for name in ("wall_s", "calibration_s")
                }
        traced = {side: series(side, workload, 1) for side in SIDES}
        if all(traced.values()):
            names = sorted(traced["parent"][0]["metrics"])
            layers[workload] = {
                name: {side: statistics.median(r["metrics"][name] for r in traced[side])
                       for side in SIDES}
                for name in names
            }
    if not comparisons:
        raise SystemExit("error: no workload has two untraced runs on each side")

    record = {
        "command": " ".join(spec["command"]) + " --workload all --seed SEED",
        "order": [f"{r['side']}:{r['workload']}:seed{r['seed']}:trace{r['trace']}"
                  for r in runs],
        "all_correct": all(r["correct"] for r in runs),
        "end_to_end": comparisons,
        "unscaled_medians": unscaled_medians,
        "per_layer_medians": layers,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, metrics in comparisons.items():
        for name, c in metrics.items():
            print(f"{workload:<14} {name:<12} parent {c['parent']['median']:.4g} "
                  f"change {c['change']['median']:.4g} ({c['relative_change']:+.1%}) "
                  f"wins {c['change_wins']}/{c['pairs']} gain_rule_met={c['gain_rule_met']} "
                  f"within_bound={c['within_bound']}")
    for workload, metrics in unscaled_medians.items():
        for name, medians in metrics.items():
            print(f"{workload:<14} {name:<12} parent {medians['parent']:.4g} "
                  f"change {medians['change']:.4g} (unscaled, informational)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
