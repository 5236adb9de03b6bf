"""Experiment driver: one flat JSON config in, deterministic CSV/JSON out.

Commands
--------
bound          Gaussian-approximation report for a kernel file.
gamma          Gamma-approximation report for a kernel file.
breuer-major   Exact Kolmogorov-bound table over a list of grid sizes n.
chi2-example   Quadratic-functional example: kernel M[k,l] = a(k-l)/n with
               a(0) = 1 and a(r) = 1 + 2^{-|r|} for r != 0, swept over n,
               reported through the Gamma bound at nu = 1 (target N^2 - 1).
               M is symmetric Toeplitz, so the bound comes from its first
               column alone (bounds._toeplitz_gamma_bound: ||M||^2 in O(n),
               ||M^2 - M||^2 by a diagonal walk in O(n^2) time and O(n)
               memory); no n x n array is built.  Every n is checked before
               any row runs: an n whose n^2 walk exceeds breuer-major's op
               budget (n > 44,721) is a precondition error.
pearson        Sampled density/tau grid, the moments 0-4 (null where the
               moment does not exist) and the log-derivative coefficients
               for a quadratic-tau spec.
simulate       Monte Carlo Z_n batch, empirical Kolmogorov distance against
               the standard normal, and the exact bound next to it.  The
               sampler's memory is checked against the physical memory
               first, then the bound runs, so an n or a count over the
               memory budget and an n over the op budget are refused
               before any sample is drawn.

Every run writes one CSV data file (fixed column order, floats at 17
significant digits, byte-identical across reruns of the same config) plus a
manifest JSON echoing the config, versions and timings.  Numerical
diagnostics go under the manifest's "diagnostics" key, outside "result":
simulate gives the sampler's generator, circulant fallback, Cholesky jitter,
worker count and BLAS threads (1, or null where no OpenBLAS thread control
was found); breuer-major gives the op budget of the contraction sums
and each row's estimate against it; pearson gives the quadrature panel
counts (panels taken from the batched Gauss-Kronrod rule, panels handed to
scalar QUADPACK).
Each command's parameters (name, kind, default and, for an integer or a list
of integers, a lower bound) are one row of the table _COMMANDS; run reads
them against it before anything runs, so an unknown or missing parameter, a
value of the wrong kind or an integer below its bound is a config error.
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
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import __version__, simulate
from ._toeplitz import _trace_ops
from .bounds import (BoundError, BoundReport, _toeplitz_gamma_bound, gamma_bound_single,
                     gauss_bound_single)
from .breuer_major import (DEFAULT_OP_BUDGET, BmInstance, BreuerMajorError, bm_bound_exact,
                           bm_table)
from .chaos import ChaosError
from .pearson import (PearsonError, PearsonSpec, _moment_exists, density_from_tau,
                      pearson_classify)
from .simulate import SimulationError, empirical_kolmogorov, sample_Zn
from .tensors import SymKernel, TensorError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

_PRECONDITION_ERRORS = (TensorError, ChaosError, BoundError, BreuerMajorError, PearsonError,
                        SimulationError)


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
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"kernel file {str(path)!r} is not JSON: {exc}") from None
    return SymKernel.from_json_obj(obj)


_KIND_NOUNS = {float: "a number", int: "an integer", list[int]: "a list of integers",
               str: "a string", bool: "a JSON boolean"}


def _value(key: str, kind, value):
    """value as kind (float, int, list[int], str or bool), else a ConfigError.

    Numbers and numeric strings convert to float and int; an int refuses a
    non-integral value rather than truncate it, and a float refuses NaN
    ("inf" and "-inf" stay: pearson's a and b take them), and an integer
    beyond the float range.
    """
    if kind == list[int] and isinstance(value, list):
        return [_value(key, int, v) for v in value]
    if kind in (str, bool) and isinstance(value, kind):
        return value
    if kind in (float, int):
        number = value
        if isinstance(value, str):
            try:
                number = kind(value)
            except ValueError:
                pass
        if not isinstance(number, bool):
            if kind is float and isinstance(number, (int, float)):
                try:
                    number = float(number)
                except OverflowError:
                    raise ConfigError(f"parameter {key!r} lies beyond the float range") from None
                if not math.isnan(number):
                    return number
            if isinstance(number, int) or (isinstance(number, float) and number.is_integer()):
                return int(number)
    raise ConfigError(f"parameter {key!r} must be {_KIND_NOUNS[kind]}, got {value!r}")


def _parse(schema: dict, params: dict) -> dict:
    """params read against a schema {name: (kind, default[, lower])}; default
    None = required, and lower bounds an int or every entry of a list[int]."""
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(f"unknown parameter(s) {unknown}; this command takes {list(schema)}")
    values = {}
    for key, (kind, default, *lower) in schema.items():
        if key not in params and default is None:
            raise ConfigError(f"missing parameter {key!r}")
        values[key] = _value(key, kind, params.get(key, default))
        entries = values[key] if kind == list[int] else [values[key]]
        if lower and min(entries, default=lower[0]) < lower[0]:
            raise ConfigError(f"parameter {key!r} must be >= {lower[0]}, got {min(entries)}")
    return values


# Every command takes its parsed parameters as keyword arguments and returns
# (CSV header, CSV rows, result); run writes the CSV and the manifest.


def _cmd_kernel_report(kernel: str, metric: str, nu: float | None = None):
    sym = _load_kernel(Path(kernel))
    report = gauss_bound_single(sym, metric) if nu is None else gamma_bound_single(sym, nu, metric)
    return BoundReport.CSV_HEADER, [report.csv_row()], {"report": report.to_json_obj()}


def _cmd_breuer_major(H: float, q: int, ns: list[int]):
    rows_dicts = bm_table(H, q, ns)
    header = ["H", "q", "n", "variance_term", "squared_total", "kol_bound", "rate_exponent"]
    rows = [[r[c] for c in header] for r in rows_dicts]
    diagnostics = {
        "op_budget": DEFAULT_OP_BUDGET,
        "op_estimates": [r["op_estimate"] for r in rows_dicts],
    }
    return header, rows, {"rows": len(rows), "diagnostics": diagnostics}


def _chi2_sequence(r: np.ndarray) -> np.ndarray:
    out = 1.0 + np.power(2.0, -np.abs(r, dtype=float))
    out[r == 0] = 1.0
    return out


def _cmd_chi2_example(ns: list[int], metric: str):
    for n in ns:
        if _trace_ops(n)[0] > DEFAULT_OP_BUDGET:
            raise BoundError(f"n = {n} walks n^2 diagonal entries, over the op budget "
                             f"{Decimal(DEFAULT_OP_BUDGET):.2g} "
                             f"(n <= {math.isqrt(DEFAULT_OP_BUDGET)})")
    rows = []
    for n in ns:
        report = _toeplitz_gamma_bound(_chi2_sequence(np.arange(n)) / n, 1.0, metric)
        rows.append([n, report.variance_term, report.squared_total, report.bound])
    grid, bounds = np.array(ns, dtype=float), np.array([row[-1] for row in rows])
    fit = bounds > 0.0  # a bound of 0 (n = 1) has no log-log slope
    slope = (float(np.polyfit(np.log(grid[fit]), np.log(bounds[fit]), 1)[0])
             if np.count_nonzero(fit) >= 2 else None)
    return ["n", "variance_term", "squared_total", "bound"], rows, {"slope": slope}


def _cmd_pearson(alpha: float, beta: float, gamma: float, a: float, b: float, grid: int):
    spec = PearsonSpec(alpha, beta, gamma, a, b)
    density = density_from_tau(spec)
    lo, hi = density.effective_range()
    span = hi - lo
    try:
        xs = np.linspace(lo + 1e-4 * span, hi - 1e-4 * span, grid)
    except (ValueError, OverflowError, MemoryError) as exc:  # too large for numpy
        raise PearsonError(f"numpy cannot allocate the 'grid' of points: {exc}") from None
    rows = np.column_stack([xs, density.pdf(xs), spec.tau(xs)]).tolist()
    ode = pearson_classify(spec)
    moments = [density.moment(k) if _moment_exists(spec, k) else None for k in range(5)]
    return ["x", "pdf", "tau"], rows, {
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


def _cmd_simulate(H: float, q: int, n: int, count: int, seed: int, dump_samples: bool):
    inst = BmInstance(H, q, n)
    simulate._check_memory(n, count, 8)  # sample_Zn's output is one float per draw
    report = bm_bound_exact(inst)
    batch = sample_Zn(H, q, n, count, seed)
    ks = empirical_kolmogorov(batch.values, _normal_cdf)
    header = ["H", "q", "n", "count", "seed",
              "sample_mean", "sample_var", "ks_vs_normal", "kol_bound"]
    row = [H, q, n, count, seed,
           float(np.mean(batch.values)), float(np.var(batch.values)), ks, report.bound]
    result = {"ks": ks, "bound": report.bound, "diagnostics": {
        "generator": batch.meta["increments"],
        "circulant_fallback": batch.meta["circulant_fallback"],
        "cholesky_jitter": batch.meta["cholesky_jitter"],
        "workers": simulate.WORKERS,
        "blas_threads": simulate._one_blas_thread.threads,
    }}
    if dump_samples:
        lines = ["# " + json.dumps(batch.meta, sort_keys=True), "value"]
        lines.extend(_fmt(float(v)) for v in batch.values)
        result["extra_files"] = {"samples.csv": "\n".join(lines) + "\n"}
    return header, [row], result


# command -> (CSV file, command function, schema {parameter: (kind, default[,
# lower])}); a default of None marks a required parameter, and lower is the
# least value of an int or of every entry of a list[int]
_KERNEL, _HQ = {"kernel": (str, None)}, {"H": (float, None), "q": (int, None)}
_COMMANDS = {
    "bound": ("bound.csv", _cmd_kernel_report, {**_KERNEL, "metric": (str, "kolmogorov")}),
    "gamma": ("gamma.csv", _cmd_kernel_report,
              {**_KERNEL, "nu": (float, None), "metric": (str, "h2")}),
    "breuer-major": ("breuer_major.csv", _cmd_breuer_major,
                     {**_HQ, "ns": (list[int], None, 1)}),
    "chi2-example": ("chi2_example.csv", _cmd_chi2_example,
                     {"ns": (list[int], [16, 32, 64, 128, 256, 512], 1),
                      "metric": (str, "h1")}),
    "pearson": ("pearson.csv", _cmd_pearson,
                {**{k: (float, None) for k in ("alpha", "beta", "gamma", "a", "b")},
                 "grid": (int, 401, 1)}),
    "simulate": ("simulate.csv", _cmd_simulate,
                 {**_HQ, "n": (int, None, 1), "count": (int, 100_000), "seed": (int, 0),
                  "dump_samples": (bool, False)}),
}


def run(config: dict, out_dir: Path, seed_override: int | None = None) -> dict:
    """Execute one config; returns the manifest dictionary.

    The parameters are read against the command's schema before anything
    runs or is written, so every malformed config is a ConfigError.
    """
    if not isinstance(config, dict) or "command" not in config:
        raise ConfigError("config must be an object with a 'command' field")
    command = config["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    csv_name, command_fn, schema = _COMMANDS[command]
    params = config.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError(f"'parameters' must be an object, got {params!r}")
    if seed_override is not None:
        if "seed" not in schema:
            raise ConfigError(f"--seed applies only to commands with a seed, not {command!r}")
        params = {**params, "seed": int(seed_override)}
    values = _parse(schema, params)
    started = time.perf_counter()
    header, rows, result = command_fn(**values)
    _write_csv(out_dir / csv_name, header, rows)
    extra_files = result.pop("extra_files", {})
    for name, text in extra_files.items():
        (out_dir / name).write_text(text)
    diagnostics = result.pop("diagnostics", None)
    manifest = {
        "command": command,
        "config": {"command": command, "parameters": params},
        "version": __version__,
        "elapsed_seconds": time.perf_counter() - started,
        "result": {"files": [csv_name, *extra_files], **result},
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
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        print(f"error: cannot parse config as JSON: {exc}", file=sys.stderr)
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
