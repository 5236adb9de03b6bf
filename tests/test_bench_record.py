"""tools/bench_record.py: the paired comparison and the record it writes."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_compare_clear_win_meets_gain_rule():
    parent = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.3, 10.0, 9.7, 10.2]
    change = [p * 0.5 for p in parent]
    c = bench_record.compare(parent, change, "lower", 0.25)
    assert c["change_wins"] == 10 and c["change_losses"] == 0 and c["ties"] == 0
    assert c["gain_rule_met"]
    assert c["within_bound"]
    assert c["relative_change"] == pytest.approx(-0.5)


def test_compare_regression_beyond_bound_fails():
    parent = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.3, 10.0, 9.7, 10.2]
    change = [p * 1.3 for p in parent]
    c = bench_record.compare(parent, change, "lower", 0.25)
    assert c["change_losses"] == 10
    assert not c["gain_rule_met"]
    assert not c["within_bound"]
    # the same slowdown is inside a looser bound
    assert bench_record.compare(parent, change, "lower", 0.5)["within_bound"]


def test_compare_higher_is_better():
    parent = [0.98, 0.99, 0.97, 0.99]
    c = bench_record.compare(parent, [1.0] * 4, "higher", 0.001)
    assert c["change_wins"] == 4
    assert c["gain_rule_met"] and c["within_bound"]
    assert not bench_record.compare([1.0] * 4, parent, "higher", 0.001)["within_bound"]


def _result(workload, seed, wall, failed=0):
    return {
        "workload": workload,
        "seed": seed,
        "wall_ref_s": wall,
        "setup_s_runs": [{"setup_ref_s": s} for s in (0.9, 1.0, 1.1)],
        "peak_rss_mb": 100.0 + wall,
        "failed": failed,
        "attempted": 50,
        "integrity": [],
        "machine": {"nproc": 2},
        "env": {"numpy": "test"},
    }


def _run_dir(root, name, result):
    directory = root / name
    directory.mkdir()
    path = directory / f"{result['workload']}-seed{result['seed']}-trace0.json"
    path.write_text(json.dumps(result))
    return directory


def test_main_writes_medians_of_both_sides(tmp_path, capsys):
    walls = {"parent": [4.0, 4.4, 4.2], "change": [3.0, 3.2, 3.4]}
    args = []
    for k in range(3):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result = _result("chi2-oracles", k, walls[side][k])
            args.append(f"{side}={_run_dir(tmp_path, f'{side}{k}', result)}")
    out = tmp_path / "BENCH_test.json"
    assert bench_record.main(["--out", str(out), *args]) == 0
    assert "chi2-oracles" in capsys.readouterr().out

    record = json.loads(out.read_text())
    assert record["all_correct"] is True
    assert len(record["runs"]) == 6
    assert record["order"][:2] == ["parent:chi2-oracles:seed0:trace0",
                                   "change:chi2-oracles:seed0:trace0"]
    wall = record["end_to_end"]["chi2-oracles"]["wall_ref_s"]
    assert wall["parent"]["median"] == pytest.approx(4.2)
    assert wall["change"]["median"] == pytest.approx(3.2)
    assert wall["change_wins"] == 3
    assert record["end_to_end"]["chi2-oracles"]["setup_s"]["parent"]["median"] == 1.0
    assert record["end_to_end"]["chi2-oracles"]["pass_ratio"]["change"]["median"] == 1.0
    assert "bm-rates-mc" not in record["end_to_end"]


def test_main_marks_a_failed_run(tmp_path):
    args = [
        f"parent={_run_dir(tmp_path, 'p0', _result('bm-rates-mc', 0, 6.0))}",
        f"change={_run_dir(tmp_path, 'c0', _result('bm-rates-mc', 0, 6.0, failed=1))}",
        f"parent={_run_dir(tmp_path, 'p1', _result('bm-rates-mc', 1, 6.1))}",
        f"change={_run_dir(tmp_path, 'c1', _result('bm-rates-mc', 1, 6.1))}",
    ]
    out = tmp_path / "BENCH_test.json"
    assert bench_record.main(["--out", str(out), *args]) == 0
    record = json.loads(out.read_text())
    assert record["all_correct"] is False
    ratio = record["end_to_end"]["bm-rates-mc"]["pass_ratio"]
    assert ratio["change"]["median"] == pytest.approx(1.0 - 0.5 / 50)


def test_main_records_unscaled_wall_and_calibration_medians(tmp_path, capsys):
    # two untraced passes and a traced one, whose calibration is left out
    def result(seed, wall, calibration):
        passes = [{"traced": False, "calibration": [calibration, calibration + 0.002]},
                  {"traced": True, "calibration": [1.0]},
                  {"traced": False, "calibration": [calibration + 0.001]}]
        return {**_result("bm-rates-mc", seed, 6.0), "wall_s": wall, "passes": passes}

    args = [
        f"parent={_run_dir(tmp_path, 'p0', result(0, 5.0, 0.010))}",
        f"change={_run_dir(tmp_path, 'c0', result(0, 4.0, 0.020))}",
        f"change={_run_dir(tmp_path, 'c1', result(1, 4.2, 0.022))}",
        f"parent={_run_dir(tmp_path, 'p1', result(1, 5.4, 0.012))}",
    ]
    out = tmp_path / "BENCH_test.json"
    assert bench_record.main(["--out", str(out), *args]) == 0
    assert "informational" in capsys.readouterr().out
    record = json.loads(out.read_text())
    assert record["runs"][0]["unscaled"] == {"wall_s": 5.0, "calibration_s": 0.011}
    medians = record["unscaled_medians"]["bm-rates-mc"]
    assert medians["wall_s"] == pytest.approx({"parent": 5.2, "change": 4.1})
    assert medians["calibration_s"] == pytest.approx({"parent": 0.012, "change": 0.022})
    # informational only: the end-to-end comparison is as before
    assert record["end_to_end"]["bm-rates-mc"]["wall_ref_s"]["ties"] == 2
