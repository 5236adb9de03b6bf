"""tools/layer_time.py: pairing, alternation and the record, on synthetic timings."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "layer_time.py"
_SPEC = importlib.util.spec_from_file_location("layer_time", _PATH)
layer_time = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_time)


def _fake_timer(calls, seconds_of):
    """A time_call stand-in: records each call and returns synthetic times."""
    def time_call(checkout, expression, k, env, setup):
        side = checkout.name
        calls.append((side, expression, env["OPENBLAS_NUM_THREADS"]))
        median = seconds_of(side, expression, sum(c[:2] == (side, expression) for c in calls))
        return {"seconds": [median] * k, "median": median, "python": "3", "numpy": "2",
                "blas": "openblas", "peak_traced_mb": 2.0 if side == "parent" else 3.0}
    return time_call


def test_pairs_alternate_and_the_record_holds_both_sides(tmp_path, monkeypatch):
    calls = []
    parent_times = [1.00, 1.04, 0.98, 1.01, 1.02, 0.99, 1.03, 1.00, 0.97, 1.02]

    def seconds_of(side, expression, k):
        base = parent_times[k - 1] * (2.0 if expression == "slow()" else 1.0)
        return base if side == "parent" else 0.6 * base

    monkeypatch.setattr(layer_time, "time_call", _fake_timer(calls, seconds_of))
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "BENCH_x.json"
    assert layer_time.main(["--parent", str(tmp_path / "parent"), "--change",
                            str(tmp_path / "change"), "--out", str(out), "--calls", "3",
                            "fast()", "slow()"]) == 0
    record = json.loads(out.read_text())

    threads = str(layer_time._bench_run().blas_threads())
    assert {c[2] for c in calls} == {threads}  # the benchmark's BLAS setting
    # pair 0 runs the parent first, pair 1 the change, and so on
    assert [c[0] for c in calls[:8]] == ["parent", "change"] * 2 + ["change", "parent"] * 2
    assert record["order"][:2] == ["parent:pair0:fast()", "change:pair0:fast()"]
    assert len(record["runs"]) == 40 and all(len(r["seconds"]) == 3 for r in record["runs"])
    assert record["machine"]["blas_threads_set"] == int(threads)
    for expression, scale in (("fast()", 1.0), ("slow()", 2.0)):
        c = record["layer"][expression]
        assert c["pairs"] == 10 and c["change_wins"] == 10
        assert c["parent"]["median"] == pytest.approx(1.005 * scale)
        assert c["change"]["median"] == pytest.approx(0.603 * scale)
        assert c["gain_rule_met"] and c["within_bound"]
        assert c["peak_traced_mb"] == {"parent": 2.0, "change": 3.0, "ratio": 1.5}


def test_a_slower_change_fails_the_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(layer_time, "time_call",
                        _fake_timer([], lambda side, e, k: 1.0 if side == "parent" else 1.5))
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "BENCH_x.json"
    layer_time.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                     "--out", str(out), "--pairs", "4", "f()"])
    c = json.loads(out.read_text())["layer"]["f()"]
    assert c["change_losses"] == 4 and not c["gain_rule_met"] and not c["within_bound"]


def test_the_timer_runs_the_setup_and_traces_one_call():
    # a real timed process on this checkout: the setup binds N, the expression
    # allocates N bytes, so the traced peak is at least 1 MiB
    result = layer_time.time_call(_PATH.parent.parent, "bytearray(N)", 2, dict(os.environ),
                                  "N = 2**20")
    assert len(result["seconds"]) == 2
    assert result["peak_traced_mb"] >= 1.0
