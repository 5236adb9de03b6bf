"""Experiment driver: one flat JSON config in, deterministic CSV/JSON out.

Commands
--------
bound          Gaussian-approximation report for a kernel file.
gamma          Gamma-approximation report for a kernel file.
breuer-major   Exact Kolmogorov-bound table over a list of grid sizes n.
chi2-example   Quadratic-functional example: kernel M[k,l] = a(k-l)/n with
               a(r) = 1 + 2^{-|r|} for r != 0 (the dense builder of
               steinchaos._toeplitz), swept over n, reported through the
               Gamma bound at nu = 1 (target N^2 - 1).
pearson        Sampled density/tau grid and the log-derivative coefficients
               for a quadratic-tau spec.
simulate       Monte Carlo Z_n batch, empirical Kolmogorov distance against
               the standard normal, and the exact bound next to it.

Every run writes one CSV data file (fixed column order, floats at 17
significant digits, byte-identical across reruns of the same config) plus a
manifest JSON echoing the config, versions and timings.  Numerical
diagnostics go under the manifest's "diagnostics" key, outside "result":
simulate gives the sampler's generator, circulant fallback, Cholesky jitter
and worker count; breuer-major gives the op budget of the contraction sums
and each row's estimate against it; pearson gives the quadrature panel
counts (panels taken from the batched Gauss-Kronrod rule, panels handed to
scalar QUADPACK).
Exit codes: 0 ok, 2 config parse error, 3 precondition violation, 4 file
I/O error.

Each run is a fresh process, so imports are part of its cost.  No command
loads a scipy module: sigma's tail takes its Hurwitz zeta values from a
pure-Python Euler-Maclaurin sum, and simulate's KS distance uses the normal
CDF 0.5 erfc(-x/sqrt 2) of the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, simulate
from ._toeplitz import _toeplitz
from .bounds import (
    BoundError,
    gamma_bound_single,
    gauss_bound_single,
)
from .breuer_major import (DEFAULT_OP_BUDGET, BmInstance, BreuerMajorError, bm_bound_exact,
                           bm_table)
from .chaos import ChaosError
from .pearson import PearsonError, PearsonSpec, density_from_tau, pearson_classify
from .simulate import SimulationError, empirical_kolmogorov, sample_Zn
from .tensors import GramSpace, SymKernel, TensorError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

_PRECONDITION_ERRORS = (
    TensorError,
    ChaosError,
    BoundError,
    BreuerMajorError,
    PearsonError,
    SimulationError,
)


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _load_kernel(path: Path) -> SymKernel:
    obj = json.loads(path.read_text())
    return SymKernel.from_json_obj(obj)


def _require(params: dict, key: str):
    if key not in params:
        raise ConfigError(f"missing parameter {key!r}")
    return params[key]


def _number(key: str, value, kind: type):
    """value as kind (int or float), else a ConfigError.

    Numbers and numeric strings convert; an int parameter refuses a
    non-integral value rather than truncate it.
    """
    number = value
    if isinstance(value, str):
        try:
            number = kind(value)
        except ValueError:
            pass
    if not isinstance(number, bool):
        if kind is float and isinstance(number, (int, float)):
            return float(number)
        if isinstance(number, int) or (isinstance(number, float) and number.is_integer()):
            return int(number)
    noun = "a number" if kind is float else "an integer"
    raise ConfigError(f"parameter {key!r} must be {noun}, got {value!r}")


def _param(params: dict, key: str, kind, default=None):
    """params[key] as kind: float, int or list[int]; required if default is None."""
    value = _require(params, key) if default is None else params.get(key, default)
    if kind != list[int]:
        return _number(key, value, kind)
    if not isinstance(value, list):
        raise ConfigError(f"parameter {key!r} must be a list of integers, got {value!r}")
    return [_number(key, v, int) for v in value]


# column names of BoundReport.csv_row
REPORT_HEADER = ["metric", "variance_term", "squared_total", "bound"]


def _cmd_bound(params: dict, out_dir: Path) -> dict:
    kernel = _load_kernel(Path(_require(params, "kernel")))
    metric = params.get("metric", "kolmogorov")
    report = gauss_bound_single(kernel, metric)
    _write_csv(out_dir / "bound.csv", REPORT_HEADER, [report.csv_row()])
    return {"files": ["bound.csv"], "report": report.to_json_obj()}


def _cmd_gamma(params: dict, out_dir: Path) -> dict:
    kernel = _load_kernel(Path(_require(params, "kernel")))
    nu = _param(params, "nu", float)
    metric = params.get("metric", "h2")
    report = gamma_bound_single(kernel, nu, metric)
    _write_csv(out_dir / "gamma.csv", REPORT_HEADER, [report.csv_row()])
    return {"files": ["gamma.csv"], "report": report.to_json_obj()}


def _cmd_breuer_major(params: dict, out_dir: Path) -> dict:
    H = _param(params, "H", float)
    q = _param(params, "q", int)
    ns = _param(params, "ns", list[int])
    rows_dicts = bm_table(H, q, ns)
    header = [
        "H", "q", "n", "variance_term", "squared_total", "kol_bound", "rate_exponent",
    ]
    rows = [[r[c] for c in header] for r in rows_dicts]
    _write_csv(out_dir / "breuer_major.csv", header, rows)
    diagnostics = {
        "op_budget": DEFAULT_OP_BUDGET,
        "op_estimates": [r["op_estimate"] for r in rows_dicts],
    }
    return {"files": ["breuer_major.csv"], "rows": len(rows), "diagnostics": diagnostics}


def _chi2_sequence(r: np.ndarray) -> np.ndarray:
    out = 1.0 + np.power(2.0, -np.abs(r, dtype=float))
    out[r == 0] = 1.0
    return out


def _cmd_chi2_example(params: dict, out_dir: Path) -> dict:
    ns = _param(params, "ns", list[int], [16, 32, 64, 128, 256, 512])
    if any(n < 1 for n in ns):
        raise ConfigError("all n must be >= 1")
    metric = params.get("metric", "h1")
    header = ["n", "variance_term", "squared_total", "bound"]
    rows = []
    for n in ns:
        matrix = _toeplitz(_chi2_sequence(np.arange(n)) / n)
        kernel = SymKernel.from_dense(GramSpace.standard(n), matrix)
        report = gamma_bound_single(kernel, 1.0, metric)
        rows.append([n, report.variance_term, report.squared_total, report.bound])
    grid, bounds = np.array(ns, dtype=float), np.array([row[-1] for row in rows])
    fit = bounds > 0.0  # a bound of 0 (n = 1) has no log-log slope
    slope = (float(np.polyfit(np.log(grid[fit]), np.log(bounds[fit]), 1)[0])
             if np.count_nonzero(fit) >= 2 else None)
    _write_csv(out_dir / "chi2_example.csv", header, rows)
    return {"files": ["chi2_example.csv"], "slope": slope}


def _cmd_pearson(params: dict, out_dir: Path) -> dict:
    spec = PearsonSpec.from_json_obj(
        {k: _param(params, k, float) for k in ("alpha", "beta", "gamma", "a", "b")}
    )
    grid_size = _param(params, "grid", int, 401)
    density = density_from_tau(spec)
    lo, hi = density.effective_range()
    span = hi - lo
    xs = np.linspace(lo + 1e-4 * span, hi - 1e-4 * span, grid_size)
    header = ["x", "pdf", "tau"]
    rows = np.column_stack([xs, density.pdf(xs), spec.tau(xs)]).tolist()
    _write_csv(out_dir / "pearson.csv", header, rows)
    ode = pearson_classify(spec)
    moments = [density.moment(k) for k in range(5)]
    return {
        "files": ["pearson.csv"],
        "normalization": density.normalization,
        "moments": moments,
        "ode_derived": list(ode.derived),
        "ode_printed": list(ode.printed),
        "diagnostics": {
            "quad_panels": density.quad_panels,
            "quad_fallbacks": density.quad_fallbacks,
        },
    }


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x/sqrt 2), one libm erfc per point."""
    return 0.5 * np.fromiter(map(math.erfc, (-x / math.sqrt(2.0)).tolist()), float, x.size)


def _cmd_simulate(params: dict, out_dir: Path) -> dict:
    H = _param(params, "H", float)
    q = _param(params, "q", int)
    n = _param(params, "n", int)
    count = _param(params, "count", int, 100_000)
    seed = _param(params, "seed", int, 0)
    inst = BmInstance(H, q, n)
    batch = sample_Zn(H, q, n, count, seed)
    report = bm_bound_exact(inst)
    ks = empirical_kolmogorov(batch.values, _normal_cdf)
    header = [
        "H", "q", "n", "count", "seed",
        "sample_mean", "sample_var", "ks_vs_normal", "kol_bound",
    ]
    row = [
        H, q, n, count, seed,
        float(np.mean(batch.values)),
        float(np.var(batch.values)),
        ks,
        report.bound,
    ]
    _write_csv(out_dir / "simulate.csv", header, [row])
    files = ["simulate.csv"]
    if params.get("dump_samples"):
        sample_path = out_dir / "samples.csv"
        lines = ["# " + json.dumps(batch.meta, sort_keys=True), "value"]
        lines.extend(_fmt(float(v)) for v in batch.values)
        sample_path.write_text("\n".join(lines) + "\n")
        files.append("samples.csv")
    diagnostics = {
        "generator": batch.meta["increments"],
        "circulant_fallback": batch.meta["circulant_fallback"],
        "cholesky_jitter": batch.meta["cholesky_jitter"],
        "workers": simulate.WORKERS,
    }
    return {"files": files, "ks": ks, "bound": report.bound, "diagnostics": diagnostics}


_COMMANDS = {
    "bound": _cmd_bound,
    "gamma": _cmd_gamma,
    "breuer-major": _cmd_breuer_major,
    "chi2-example": _cmd_chi2_example,
    "pearson": _cmd_pearson,
    "simulate": _cmd_simulate,
}


def run(config: dict, out_dir: Path, seed_override: int | None = None) -> dict:
    """Execute one validated config; returns the manifest dictionary."""
    if not isinstance(config, dict) or "command" not in config:
        raise ConfigError("config must be an object with a 'command' field")
    command = config["command"]
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    params = dict(config.get("parameters", {}))
    if seed_override is not None:
        params["seed"] = int(seed_override)
    started = time.perf_counter()
    result = _COMMANDS[command](params, out_dir)
    diagnostics = result.pop("diagnostics", None)
    manifest = {
        "command": command,
        "config": {"command": command, "parameters": params},
        "version": __version__,
        "elapsed_seconds": time.perf_counter() - started,
        "result": result,
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=float))
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="steinchaos",
        description="Chaos distance bounds and Monte Carlo experiments",
    )
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        manifest = run(config, out_dir, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _PRECONDITION_ERRORS as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps({"command": manifest["command"], "result": manifest["result"]},
                     default=float))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
