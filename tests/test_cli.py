import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from steinchaos import breuer_major, bounds, cli, simulate, tensors
from steinchaos._toeplitz import _trace_ops
from steinchaos.breuer_major import DEFAULT_OP_BUDGET
from steinchaos.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PRECONDITION, _normal_cdf, main
from steinchaos.tensors import GramSpace, tensor_power


def run_cli(tmp_path, config, out="out", extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / out
    code = main(["--config", str(cfg), "--out", str(out_dir), *extra])
    return code, out_dir


def write_kernel(tmp_path, kernel, name="kernel.json"):
    path = tmp_path / name
    path.write_text(kernel.to_json())
    return path


def test_breuer_major_command(tmp_path):
    code, out = run_cli(
        tmp_path,
        {"command": "breuer-major", "parameters": {"H": 0.5, "q": 2, "ns": [2, 8]}},
    )
    assert code == EXIT_OK
    lines = (out / "breuer_major.csv").read_text().strip().splitlines()
    assert lines[0] == "H,q,n,variance_term,squared_total,kol_bound,rate_exponent"
    bounds = [float(line.split(",")[5]) for line in lines[1:]]
    assert bounds == pytest.approx([1.0, 0.5], abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "breuer-major"


def test_breuer_major_manifest_diagnostics(tmp_path):
    # the guard's estimates: n^2 four-cycle entries at q = 2, n = 2 and 8
    _, out = run_cli(
        tmp_path,
        {"command": "breuer-major", "parameters": {"H": 0.5, "q": 2, "ns": [2, 8]}},
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"] == {"op_budget": DEFAULT_OP_BUDGET, "op_estimates": [4, 64]}
    assert "diagnostics" not in manifest["result"]


def test_reruns_are_byte_identical(tmp_path):
    for H, q, ns in ((0.62, 2, [4, 16, 64]), (0.6, 3, [8, 16])):
        config = {"command": "breuer-major", "parameters": {"H": H, "q": q, "ns": ns}}
        runs = [run_cli(tmp_path, config, out=f"q{q}{name}") for name in "ab"]
        assert [code for code, _ in runs] == [EXIT_OK, EXIT_OK]
        csvs = [(out / "breuer_major.csv").read_bytes() for _, out in runs]
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == 1 + len(ns)


def test_bound_command(tmp_path):
    space = GramSpace.standard(2)
    kernel = (1.0 / math.sqrt(2.0)) * tensor_power(space, np.array([1.0, 0.0]), 2)
    path = write_kernel(tmp_path, kernel)
    code, out = run_cli(
        tmp_path,
        {"command": "bound", "parameters": {"kernel": str(path), "metric": "tv"}},
    )
    assert code == EXIT_OK
    line = (out / "bound.csv").read_text().strip().splitlines()[1]
    fields = line.split(",")
    assert fields[0] == "total-variation"
    assert float(fields[3]) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_gamma_command(tmp_path):
    space = GramSpace.standard(2)
    kernel = tensor_power(space, np.array([1.0, 0.0]), 2)
    path = write_kernel(tmp_path, kernel)
    code, out = run_cli(
        tmp_path,
        {"command": "gamma", "parameters": {"kernel": str(path), "nu": 1.0}},
    )
    assert code == EXIT_OK
    line = (out / "gamma.csv").read_text().strip().splitlines()[1]
    assert float(line.split(",")[3]) == pytest.approx(0.0, abs=1e-12)


def test_chi2_example_command(tmp_path):
    code, out = run_cli(
        tmp_path, {"command": "chi2-example", "parameters": {"ns": [16, 32, 64]}}
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["result"]["slope"] < -0.3
    rows = (out / "chi2_example.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3


def test_chi2_example_memory_is_linear_in_n():
    # the dense n x n kernel took 896 MiB traced at n = 4096; the walk keeps
    # two blocks of WALK_BLOCK entries
    tracemalloc.start()
    try:
        _, rows, _ = cli._cmd_chi2_example([4096], "h1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0][3] > 0.0
    assert peak <= 16 * 2**20


def test_chi2_example_runs_no_breuer_major_or_tensors_code(tmp_path):
    files = set()

    def record(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(record)
    try:
        code, _ = run_cli(tmp_path, {"command": "chi2-example", "parameters": {"ns": [8, 16]}})
    finally:
        sys.setprofile(None)
    assert code == EXIT_OK
    assert any(f.endswith("_toeplitz.py") for f in files)
    assert not [f for f in files if f.endswith(("breuer_major.py", "tensors.py"))]


@pytest.mark.parametrize("ns", [[100_000], [16, 10**30]], ids=["1e5", "1e30-after-16"])
def test_chi2_example_refuses_n_over_the_op_budget_before_any_row(tmp_path, capsys,
                                                                 monkeypatch, ns):
    calls = []
    monkeypatch.setattr(cli, "_toeplitz_gamma_bound", lambda *args: calls.append(args))
    code, out = run_cli(tmp_path, {"command": "chi2-example", "parameters": {"ns": ns}})
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "op budget" in err and "Traceback" not in err
    assert calls == []
    assert list(out.iterdir()) == []


def test_chi2_example_guard_refuses_from_isqrt_of_the_budget_on():
    # n = isqrt(budget) walks n^2 <= budget entries, one more does not
    largest = math.isqrt(DEFAULT_OP_BUDGET)
    with pytest.raises(bounds.BoundError):
        cli._cmd_chi2_example([largest + 1], "h1")
    assert _trace_ops(largest)[0] <= DEFAULT_OP_BUDGET < _trace_ops(largest + 1)[0]


@pytest.mark.parametrize("alpha, gamma, finite", [(0.5, 1.5, [1.0, 0.0, 3.0]), (1.0, 1.0, [1.0, 0.0])],
                         ids=["student-t3", "t2-like"])
def test_pearson_command_writes_null_for_a_moment_that_does_not_exist(
    tmp_path, alpha, gamma, finite
):
    config = {"command": "pearson", "parameters": {"alpha": alpha, "beta": 0, "gamma": gamma,
                                                   "a": "-inf", "b": "inf"}}
    code, out = run_cli(tmp_path, config)
    assert code == EXIT_OK
    moments = json.loads((out / "manifest.json").read_text())["result"]["moments"]
    assert moments[: len(finite)] == pytest.approx(finite, abs=1e-12)
    assert moments[len(finite):] == [None] * (5 - len(finite))


def test_pearson_command(tmp_path):
    config = {
        "command": "pearson",
        "parameters": {"alpha": 0.0, "beta": 2.0, "gamma": 2.0, "a": -1.0, "b": "inf",
                        "grid": 51},
    }
    code, out = run_cli(tmp_path, config)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    moments = manifest["result"]["moments"]
    assert moments[2] == pytest.approx(2.0, abs=1e-6)
    header = (out / "pearson.csv").read_text().splitlines()[0]
    assert header == "x,pdf,tau"
    # the Gamma target's right tail is infinite, so QUADPACK takes at least
    # those panels; the counts stay out of "result"
    diagnostics = manifest["diagnostics"]
    assert set(diagnostics) == {"quad_panels", "quad_fallbacks"}
    assert diagnostics["quad_panels"] > 0 and diagnostics["quad_fallbacks"] > 0
    assert "diagnostics" not in manifest["result"]


def test_simulate_command(tmp_path):
    config = {
        "command": "simulate",
        "parameters": {"H": 0.5, "q": 2, "n": 8, "count": 4000, "seed": 5,
                        "dump_samples": True},
    }
    code, out = run_cli(tmp_path, config)
    assert code == EXIT_OK
    line = (out / "simulate.csv").read_text().strip().splitlines()[1]
    ks, bound = (float(v) for v in line.split(",")[7:9])
    assert ks <= bound
    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[0].startswith("# ")
    assert len(samples) == 4000 + 2


def test_normal_cdf_matches_scipy_ndtr():
    # simulate's KS distance is a difference of these values; they differ
    # from ndtr's by at most 2^-52 (two units in the last place below 1)
    x = np.linspace(-9.0, 9.0, 100_001)
    assert np.max(np.abs(_normal_cdf(x) - ndtr(x))) <= np.finfo(float).eps
    assert _normal_cdf(np.array([-40.0, 0.0, 40.0])).tolist() == [0.0, 0.5, 1.0]


def test_simulate_manifest_diagnostics(tmp_path):
    for n, generator, jitter in ((8, "cholesky-toeplitz", 0.0),
                                 (1025, "circulant-embedding", None)):
        config = {"command": "simulate",
                  "parameters": {"H": 0.6, "q": 2, "n": n, "count": 10, "seed": 1}}
        code, out = run_cli(tmp_path, config, out=f"n{n}")
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"] == {
            "generator": generator, "circulant_fallback": False,
            "cholesky_jitter": jitter, "workers": simulate.WORKERS,
            "blas_threads": simulate._one_blas_thread.threads}
        assert "diagnostics" not in manifest["result"]


def test_seed_override(tmp_path):
    base = {"command": "simulate",
            "parameters": {"H": 0.5, "q": 2, "n": 4, "count": 500, "seed": 5}}
    _, out1 = run_cli(tmp_path, base, out="a", extra=("--seed", "123"))
    _, out2 = run_cli(tmp_path, base, out="b")
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["config"]["parameters"]["seed"] == 123
    assert (out1 / "simulate.csv").read_text() != (out2 / "simulate.csv").read_text()


def test_malformed_json_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    out_dir = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out_dir)])
    assert code == EXIT_CONFIG
    assert not (out_dir / "manifest.json").exists()


def test_unknown_command(tmp_path):
    code, out = run_cli(tmp_path, {"command": "frobnicate"})
    assert code == EXIT_CONFIG
    assert not (out / "manifest.json").exists()


def test_missing_parameter(tmp_path):
    code, _ = run_cli(tmp_path, {"command": "breuer-major", "parameters": {"H": 0.5}})
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, parameters",
    [
        ("breuer-major", {"H": "abc", "q": 2, "ns": [4]}),
        ("breuer-major", {"H": 0.5, "q": 2, "ns": 8}),
        ("breuer-major", {"H": 0.5, "q": 2, "ns": [16.5]}),
        ("breuer-major", {"H": 0.5, "q": True, "ns": [4]}),
        ("simulate", {"H": 0.5, "q": 2, "n": "x"}),
        ("pearson", {"alpha": 0, "beta": 0, "gamma": 1, "a": "-inf", "b": "oops"}),
        ("chi2-example", {"ns": [16, None]}),
    ],
)
def test_malformed_values_are_config_errors(tmp_path, capsys, command, parameters):
    code, out = run_cli(tmp_path, {"command": command, "parameters": parameters})
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad config" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_precondition_violation(tmp_path):
    code, out = run_cli(
        tmp_path,
        {"command": "breuer-major", "parameters": {"H": 0.8, "q": 2, "ns": [4]}},
    )
    assert code == EXIT_PRECONDITION
    assert not (out / "breuer_major.csv").exists()


def test_breuer_major_table_checks_every_row_before_computing(tmp_path, monkeypatch):
    # the n = 2048 row at q = 3 exceeds the default op budget; the n = 128 row
    # ahead of it must not be computed first
    from steinchaos import breuer_major

    calls = []
    original = breuer_major.bm_bound_exact

    def counting(inst, **kwargs):
        calls.append(inst.n)
        return original(inst, **kwargs)

    monkeypatch.setattr(breuer_major, "bm_bound_exact", counting)
    code, out = run_cli(
        tmp_path,
        {"command": "breuer-major", "parameters": {"H": 0.4, "q": 3, "ns": [128, 2048]}},
    )
    assert code == EXIT_PRECONDITION
    assert not (out / "breuer_major.csv").exists()
    assert calls == []


def test_missing_config_file(tmp_path):
    code = main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert code == EXIT_IO


def test_missing_kernel_file(tmp_path):
    code, _ = run_cli(
        tmp_path,
        {"command": "bound", "parameters": {"kernel": str(tmp_path / "nope.json")}},
    )
    assert code == EXIT_IO


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"command": "breuer-major", "parameters": {"H": 0.5, "q": 2, "ns": [4]}}
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "steinchaos.cli", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "breuer-major" in proc.stdout


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_chi2_example_slope_is_null_without_two_positive_bounds(tmp_path, capsys):
    # the n = 1 bound is exactly 0, which has no logarithm
    with np.errstate(divide="raise", invalid="raise"):
        code, out = run_cli(tmp_path, {"command": "chi2-example", "parameters": {"ns": [1, 4]}})
    assert code == EXIT_OK
    rows = (out / "chi2_example.csv").read_text().strip().splitlines()[1:]
    assert float(rows[0].split(",")[3]) == 0.0
    assert _strict_json((out / "manifest.json").read_text())["result"]["slope"] is None
    assert _strict_json(capsys.readouterr().out)["result"]["slope"] is None


def test_chi2_example_slope_fits_the_positive_bounds(tmp_path):
    slopes = []
    for ns in ([1, 4, 16], [4, 16]):
        code, out = run_cli(tmp_path, {"command": "chi2-example", "parameters": {"ns": ns}},
                            out=f"out{len(ns)}")
        assert code == EXIT_OK
        slopes.append(_strict_json((out / "manifest.json").read_text())["result"]["slope"])
    bounds = np.loadtxt(out / "chi2_example.csv", delimiter=",", skiprows=1)[:, 3]
    assert slopes[0] == slopes[1]
    assert slopes[0] == pytest.approx(math.log(bounds[1] / bounds[0]) / math.log(4.0), rel=1e-12)


@pytest.mark.parametrize("command, parameters", [
    ("chi2-example", {"ns": []}),
    ("breuer-major", {"H": 0.7, "q": 2, "ns": []}),
], ids=["chi2-example", "breuer-major"])
def test_empty_ns_writes_an_empty_table(tmp_path, command, parameters):
    # the lower bound of ns applies to each entry; no entry is no violation
    code, out = run_cli(tmp_path, {"command": command, "parameters": parameters})
    assert code == EXIT_OK
    assert len((out / f"{command.replace('-', '_')}.csv").read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "config, extra",
    [
        ({"command": "bound", "parameters": [1, 2]}, ()),
        ({"command": "bound", "parameters": "abc"}, ()),
        ({"command": ["bound"]}, ()),
        ({"command": "chi2-example", "parameters": {"metric": 5}}, ()),
        ({"command": "chi2-example", "parameters": {"nss": [4, 8]}}, ()),
        ({"command": "breuer-major", "parameters": {"H": 0.7, "q": 2, "ns": [8], "seed": 3}}, ()),
        ({"command": "breuer-major", "parameters": {"H": 0.7, "q": 2, "ns": [8]}},
         ("--seed", "5")),
        ({"command": "simulate",
          "parameters": {"H": 0.6, "q": 2, "n": 8, "count": 100, "dump_samples": "no"}}, ()),
        ({"command": "pearson",
          "parameters": {"alpha": 0, "beta": 0, "gamma": 1, "a": "-inf", "b": "inf", "grid": -1}},
         ()),
        ({"command": "breuer-major", "parameters": {"H": 0.7, "q": 2, "ns": [8, 0]}}, ()),
        ({"command": "chi2-example", "parameters": {"ns": [0]}}, ()),
        ({"command": "simulate", "parameters": {"H": 0.6, "q": 2, "n": 0, "count": 100}}, ()),
        ({"command": "gamma", "parameters": {"kernel": "unread.json", "nu": "nan"}}, ()),
    ],
    ids=["parameters-list", "parameters-string", "command-list", "metric-number",
         "misspelled-parameter", "unknown-seed", "seed-flag-without-seed", "dump-samples-string",
         "negative-grid", "breuer-major-zero-n", "chi2-zero-n",
         "simulate-zero-n", "gamma-nan-nu"],
)
def test_bad_inputs_are_config_errors(tmp_path, capsys, config, extra):
    code, out = run_cli(tmp_path, config, extra=extra)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad config" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys):
    # 10^340 is a valid JSON integer with no float value
    parameters = {"alpha": 0, "beta": 0, "gamma": 10**340, "a": "-inf", "b": "inf"}
    code, out = run_cli(tmp_path, {"command": "pearson", "parameters": parameters})
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'gamma'" in err and "float range" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_pearson_grid_numpy_cannot_hold_is_a_precondition_error(tmp_path, capsys):
    parameters = {"alpha": 0, "beta": 0, "gamma": 1, "a": "-inf", "b": "inf", "grid": 10**340}
    code, out = run_cli(tmp_path, {"command": "pearson", "parameters": parameters})
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "grid" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


_KERNEL_OBJ = {"dim": 2, "order": 2, "entries": [[[0, 0], 0.5], [[1, 1], 0.5]],
               "gram": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "text, expected",
    [
        ("{not json", EXIT_CONFIG),
        (json.dumps({k: v for k, v in _KERNEL_OBJ.items() if k != "gram"}), EXIT_PRECONDITION),
        (json.dumps(dict(_KERNEL_OBJ, order="x")), EXIT_PRECONDITION),
        (json.dumps(dict(_KERNEL_OBJ, entries=[[[0, 0], "half"]])), EXIT_PRECONDITION),
        (json.dumps(dict(_KERNEL_OBJ, gram=[[1, "x"], ["x", 1]])), EXIT_PRECONDITION),
        (json.dumps(dict(_KERNEL_OBJ, entries=[[[0, 0], math.nan], [[1, 1], 0.5]])),
         EXIT_PRECONDITION),
        (json.dumps(dict(_KERNEL_OBJ, gram=[[1, 0], [0, math.inf]])), EXIT_PRECONDITION),
        (json.dumps(dict(_KERNEL_OBJ, entries=[[[0, 1], 1.0], [[0, 1], 5.0]])),
         EXIT_PRECONDITION),
        (json.dumps(dict(_KERNEL_OBJ, dim=1, order=70, entries=[[[0] * 70, 1.0]], gram=[[1]])),
         EXIT_PRECONDITION),
    ],
    ids=["not-json", "no-gram", "order-string", "entry-string", "gram-string", "entry-nan",
         "gram-infinity", "repeated-index", "order-70"],
)
@pytest.mark.parametrize("command", ["bound", "gamma"])
def test_malformed_kernel_files(tmp_path, capsys, command, text, expected):
    path = tmp_path / "kernel.json"
    path.write_text(text)
    parameters = {"kernel": str(path), "nu": 1.0} if command == "gamma" else {"kernel": str(path)}
    code, out = run_cli(tmp_path, {"command": command, "parameters": parameters})
    assert code == expected
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_well_formed_kernel_file_runs_both_commands(tmp_path):
    # the identity Gram matrix, and a correlated one that takes the Cholesky frame
    correlated = dict(_KERNEL_OBJ, entries=[[[0, 0], 0.5], [[0, 1], 0.3], [[1, 1], 0.5]],
                      gram=[[1, 0.5], [0.5, 1]])
    for name, obj in (("identity", _KERNEL_OBJ), ("correlated", correlated)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        for command, extra in (("bound", {}), ("gamma", {"nu": 1.0})):
            code, out = run_cli(tmp_path, {"command": command,
                                           "parameters": {"kernel": str(path), **extra}},
                                out=f"{name}-{command}")
            assert code == EXIT_OK
            lines = (out / f"{command}.csv").read_text().splitlines()
            assert lines[0] == "metric,variance_term,squared_total,bound"
            assert math.isfinite(float(lines[1].split(",")[3]))


def test_dump_samples_false_writes_one_file(tmp_path):
    config = {"command": "simulate", "parameters": {"H": 0.6, "q": 2, "n": 8, "count": 100,
                                                    "dump_samples": False}}
    code, out = run_cli(tmp_path, config)
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["result"]["files"] == ["simulate.csv"]
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize(
    "change",
    [{"order": 2.5, "entries": [[[0, 0.7], 0.5]]}, {"entries": [[[0, 0.7], 0.5]]},
     {"order": 2.5}, {"dim": 2.5}],
    ids=["order-and-index", "index", "order", "dim"],
)
@pytest.mark.parametrize("command", ["bound", "gamma"])
def test_non_integral_kernel_files_exit_3(tmp_path, capsys, command, change):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(dict(_KERNEL_OBJ, **change)))
    parameters = {"kernel": str(path), "nu": 1.0} if command == "gamma" else {"kernel": str(path)}
    code, out = run_cli(tmp_path, {"command": command, "parameters": parameters})
    assert code == EXIT_PRECONDITION
    assert "integers" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_integral_floats_in_kernel_files_read_as_integers(tmp_path):
    floats = dict(_KERNEL_OBJ, dim=2.0, order=2.0,
                  entries=[[[0.0, 0.0], 0.5], [[1.0, 1.0], 0.5]])
    csvs = []
    for name, obj in (("ints", _KERNEL_OBJ), ("floats", floats)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(tmp_path, {"command": "bound", "parameters": {"kernel": str(path)}},
                            out=name)
        assert code == EXIT_OK
        csvs.append((out / "bound.csv").read_bytes())
    assert csvs[0] == csvs[1]


# Guards before work: configs that used to exit 1 with a traceback, or that
# sampled before the op budget refused them, exit 3 or 2 with no file written
# and no sample drawn.


@pytest.mark.parametrize("config", [
    {"command": "breuer-major", "parameters": {"H": 0.7, "q": 2, "ns": [10**200]}},
    {"command": "simulate", "parameters": {"H": 0.6, "q": 2, "n": 10**30, "count": 10}},
    {"command": "simulate", "parameters": {"H": 0.6, "q": 3, "n": 1500, "count": 20_000}},
    {"command": "simulate", "parameters": {"H": 0.6, "q": 2, "n": 64, "count": 10**13}},
    {"command": "simulate", "parameters": {"H": 0.6, "q": 2, "n": 64, "count": 10**30}},
], ids=["breuer-major-q2-1e200", "simulate-1e30", "simulate-q3-1500",
        "simulate-count-1e13", "simulate-count-1e30"])
def test_op_budget_refuses_before_any_sample_or_file(tmp_path, capsys, monkeypatch, config):
    calls = []
    monkeypatch.setattr(cli, "sample_Zn", lambda *args: calls.append(args))
    code, out = run_cli(tmp_path, config)
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    assert calls == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("dim", [40, 64])
@pytest.mark.parametrize("command", ["bound", "gamma"])
def test_contraction_over_memory_exits_3_before_any_file(tmp_path, capsys, command, dim):
    # one entry, but f x_1 f of an order-4 kernel holds d^6 floats: 30.5 GiB
    # at d = 40, 512 GiB at d = 64
    need = tensors._contraction_bytes(dim, 4, 4, 1)
    budget = tensors._physical_memory()
    if budget is None or budget >= need:
        pytest.skip("the contraction fits in this machine's physical memory")
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"dim": dim, "order": 4, "entries": [[[0, 0, 0, 0], 1.0]],
                                "gram": np.eye(dim).tolist()}))
    parameters = {"kernel": str(path), "nu": 1.0} if command == "gamma" else {"kernel": str(path)}
    code, out = run_cli(tmp_path, {"command": command, "parameters": parameters})
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "memory budget" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.dumps cannot write the integer either, so the config is built as text
    cfg = tmp_path / "config.json"
    cfg.write_text('{"command": "breuer-major", "parameters": {"H": 0.7, "q": 2, "ns": ['
                   + "9" * 5000 + "]}}")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot parse config" in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


# ----------------------------------------------------------------------
# schema-driven fuzz of main: every row of cli._COMMANDS at and past its limits
# ----------------------------------------------------------------------

_HUGE = "<5000 digits>"  # json.dumps refuses such an int, so _config_text writes it
_PAST_LIMITS = [0, -1, 10**30, 10**400, _HUGE, math.nan, "inf", "x", None, True, [], {}]
_FLOATS = [0.5, 0.6, 0.75, 0.9, 1.0, 2.0, -0.5, -1.0, 1e-300, 1e300, "inf", "-inf", "0.6"]
_METRICS = ["kolmogorov", "tv", "wasserstein", "h1", "h2", "bogus", ""]
_KERNEL_FILE, _MISSING_FILE = "<kernel file>", "<missing file>"
# one small config that runs, per command: the values the fuzz starts from
_RUNS = {"bound": {"kernel": _KERNEL_FILE, "metric": "kolmogorov"},
         "gamma": {"kernel": _KERNEL_FILE, "nu": 1.0, "metric": "h2"},
         "breuer-major": {"H": 0.6, "q": 2, "ns": [4, 8]},
         "chi2-example": {"ns": [4, 8], "metric": "h1"},
         "pearson": {"alpha": 0.0, "beta": 0.0, "gamma": 1.0, "a": "-inf", "b": "inf", "grid": 11},
         "simulate": {"H": 0.6, "q": 2, "n": 8, "count": 200, "seed": 0, "dump_samples": False}}
# (dim, order) of kernel files: small ones, and d^q arrays that the kernel
# guard refuses (2^70, 3^40) or whose first contraction the memory guard
# refuses (48^6 entries, ~290 GB), the latter only where it does
_KERNEL_SHAPES = [(1, 1), (2, 2), (3, 3), (2, 4), (2, 70), (3, 40)]
_BUDGET = tensors._physical_memory()
if _BUDGET is not None and tensors._contraction_bytes(48, 4, 4, 1) > _BUDGET:
    _KERNEL_SHAPES.append((48, 4))
_KERNEL_DEFECTS = ["nan", "huge", "tiny", "text", "index", "twice", "ragged", "gram-nan",
                   "no-gram", "dim", "not-json"]


def _row_values(key, kind, lower) -> list:
    """Values for one schema row: of its own kind first (small ones from just
    below its lower bound up, so that sizes stay small or past what the
    guards admit, and for q the orders either side of the op budget's limit
    at n = 8 and of q! in a float, 170), then values past every limit or of
    another kind."""
    if kind is int:
        own = list(range(lower[0] - 1 if lower else -1, 7)) + [2.5, "3"]
        if key == "q":
            own += [57, 58, 170, 171]
    elif kind == list[int]:
        own = [[], [2, 3, 4]] + [[v] for v in _row_values(key, int, lower)]
    elif kind is float:
        own = _FLOATS
    elif kind is bool:
        own = [True, False]
    else:
        own = [_KERNEL_FILE, _MISSING_FILE] if key == "kernel" else _METRICS
    return own + _PAST_LIMITS


def _kernel_text(dim, order, entries, correlated=False, defect=None) -> str:
    """Kernel file text: entries [[index, value], ...] of a d^q array, the
    identity or a correlated Gram matrix, and at most one defect."""
    entries = [list(entry) for entry in entries]
    gram = (0.5 * np.eye(dim) + 0.5 if correlated else np.eye(dim)).tolist()
    obj = {"dim": dim, "order": order, "entries": entries, "gram": gram}
    values = {"nan": math.nan, "huge": 1e308, "tiny": 1e-300, "text": "x"}
    if defect in values:
        entries[0][1] = values[defect]
    elif defect == "index":
        entries[0][0] = [dim] * order  # out of range
    elif defect == "twice":
        entries.append(entries[0])
    elif defect == "ragged":
        gram[-1].pop()
    elif defect == "gram-nan":
        gram[0][0] = math.nan
    elif defect == "no-gram":
        del obj["gram"]
    elif defect == "dim":
        obj["dim"] = 10**400
    elif defect == "not-json":
        return "{not json"
    return json.dumps(obj)


_SMALL_KERNEL = _kernel_text(2, 2, [[[0, 0], 0.5], [[0, 1], -0.25]])


def _config_text(config) -> str:
    """config as JSON text (NaN as NaN), with _HUGE written out as 5000 nines."""
    return json.dumps(config).replace(json.dumps(_HUGE), "9" * 5000)


def _resolve(value, paths: dict):
    """value with the kernel file placeholders replaced by their paths."""
    if isinstance(value, list):
        return [_resolve(v, paths) for v in value]
    return paths.get(value, value) if isinstance(value, str) else value


def _assert_exits_cleanly(config, kernel_text: str, extra=()) -> int:
    """main's exit code on config in a fresh directory, with kernel_text as
    its kernel file, asserted to be 0, 2, 3 or 4 with no traceback and no
    file written after a non-zero exit."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "kernel.json").write_text(kernel_text)
        paths = {_KERNEL_FILE: str(tmp / "kernel.json"), _MISSING_FILE: str(tmp / "missing.json")}
        if isinstance(config["parameters"], dict):
            config = dict(config, parameters={k: _resolve(v, paths)
                                              for k, v in config["parameters"].items()})
        (tmp / "config.json").write_text(_config_text(config))
        out, err = tmp / "out", io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(tmp / "config.json"), "--out", str(out), *extra])
        case = f"{config} {kernel_text[:200]} {extra}: exit {code}, {err.getvalue()}"
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_IO), case
        assert "Traceback" not in err.getvalue(), case
        assert code == EXIT_OK or not out.exists() or list(out.iterdir()) == [], case
    return code


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_row_at_and_past_its_limits_exits_cleanly(command):
    # a config that runs with one row left out or set to each of its
    # _row_values, and for the kernel commands each kernel defect and shape
    schema = cli._COMMANDS[command][2]
    assert _assert_exits_cleanly({"command": command, "parameters": _RUNS[command]},
                                 _SMALL_KERNEL) == EXIT_OK
    cases = [({k: v for k, v in _RUNS[command].items() if k != key}, _SMALL_KERNEL)
             for key in schema]
    cases += [(dict(_RUNS[command], **{key: value}), _SMALL_KERNEL)
              for key, (kind, _, *lower) in schema.items()
              for value in _row_values(key, kind, lower)]
    if "kernel" in schema:
        cases += [(_RUNS[command], _kernel_text(2, 2, [[[0, 1], 0.5]], defect=defect))
                  for defect in _KERNEL_DEFECTS]
        cases += [(_RUNS[command], _kernel_text(dim, order, [[[dim - 1] * order, 0.5]], True))
                  for dim, order in _KERNEL_SHAPES]
    for params, kernel_text in cases:
        _assert_exits_cleanly({"command": command, "parameters": params}, kernel_text)


@pytest.mark.parametrize("command, parameters, kernel", [
    ("simulate", {"H": 0.6, "q": 10**30, "n": 3, "count": 200}, None),
    ("gamma", {"kernel": "K", "nu": 1e300}, _KERNEL_OBJ),
    ("gamma", {"kernel": "K", "nu": 1e-300}, _KERNEL_OBJ),
    ("pearson", {"alpha": 0, "beta": 1e-300, "gamma": 1, "a": "-inf", "b": "inf"}, None),
    ("pearson", {"alpha": 1, "beta": 0, "gamma": 0, "a": "-inf", "b": 1e-300}, None),
    ("bound", {"kernel": "K"}, dict(_KERNEL_OBJ, dim=10**400)),
], ids=["simulate-q-1e30", "gamma-nu-1e300", "gamma-nu-1e-300", "pearson-beta-1e-300",
        "pearson-tau-0-at-0", "kernel-dim-1e400"])
def test_configs_that_raised_past_the_guards_exit_3(tmp_path, capsys, command, parameters,
                                                    kernel):
    # each exited 1 with a traceback: an OverflowError or ZeroDivisionError
    # in sigma's q!, 2/nu^2, the closed-form Pearson weight or the kernel reader
    if kernel is not None:
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(kernel))
        parameters = dict(parameters, kernel=str(path))
    code, out = run_cli(tmp_path, {"command": command, "parameters": parameters})
    assert code == EXIT_PRECONDITION
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


# q! must fit in a float: each order up to 170 that the op budget admits
# runs, and from 171 on the order is refused before any work.  From q = 58
# on, the bound used to overflow a float through q!^4 sigma^4 and exit 1.


@pytest.mark.parametrize("config, csv", [
    ({"command": "breuer-major", "parameters": {"H": 0.6, "q": 58, "ns": [4]}},
     "breuer_major.csv"),
    ({"command": "simulate", "parameters": {"H": 0.6, "q": 100, "n": 4, "count": 200, "seed": 1}},
     "simulate.csv"),
], ids=["breuer-major-q58", "simulate-q100"])
def test_orders_the_op_budget_admits_run_up_to_170(tmp_path, capsys, config, csv):
    code, out = run_cli(tmp_path, config)
    assert code == EXIT_OK, capsys.readouterr().err
    header, *rows = [line.split(",") for line in (out / csv).read_text().splitlines()]
    assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0])


@pytest.mark.parametrize("parameters", [
    {"command": "breuer-major", "parameters": {"H": 0.6, "q": 171, "ns": [1]}},
    {"command": "simulate", "parameters": {"H": 0.6, "q": 171, "n": 1, "count": 10}},
], ids=["breuer-major", "simulate"])
def test_orders_past_170_exit_3_before_any_work(tmp_path, capsys, monkeypatch, parameters):
    calls = []
    monkeypatch.setattr(cli, "sample_Zn", lambda *args: calls.append(args))
    monkeypatch.setattr(breuer_major, "_power_sum", lambda *args: calls.append(args))
    code, out = run_cli(tmp_path, parameters)
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "170" in err and "Traceback" not in err
    assert calls == []
    assert not out.exists() or list(out.iterdir()) == []


def _one_in(n: int):
    """True one time in n; hypothesis draws and shrinks toward False."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _configs(draw):
    """(config, kernel file text, extra argv): a config that runs with each
    row kept, drawn from its _row_values or left out; at times an unknown
    parameter, a malformed config or a --seed; a kernel file of a drawn
    shape, entries, Gram matrix and defect."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    params = dict(_RUNS[command])
    for key, (kind, default, *lower) in cli._COMMANDS[command][2].items():
        change = draw(st.sampled_from(["keep", "keep", "draw", "omit"]))
        if change == "draw":
            params[key] = draw(st.sampled_from(_row_values(key, kind, lower)))
        elif change == "omit":
            del params[key]
    if draw(_one_in(10)):
        params[draw(st.sampled_from(["bogus", "N", "Hurst"]))] = 1
    if draw(_one_in(30)):
        params = draw(st.sampled_from([[], "x", None]))
    config = {"command": draw(st.sampled_from([command] * 30 + ["bogus", 7])),
              "parameters": params}
    extra = draw(st.sampled_from([[]] * 6 + [["--seed", "3"], ["--seed", "-1"]]))
    dim, order = draw(st.sampled_from(_KERNEL_SHAPES))
    index = st.lists(st.integers(0, dim - 1), min_size=order, max_size=order)
    entries = draw(st.lists(st.tuples(index, st.sampled_from([0.5, -1.0, 0.25])),
                            min_size=1, max_size=3))
    defect = draw(st.sampled_from([None] * len(_KERNEL_DEFECTS) + _KERNEL_DEFECTS))
    return config, _kernel_text(dim, order, entries, draw(st.booleans()), defect), extra


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_configs())
def test_fuzzed_configs_exit_cleanly_and_write_nothing_on_failure(drawn):
    _assert_exits_cleanly(*drawn)
