"""The benchmark workloads: inputs made from the seed, operations, checks.

Every operation goes through a public entry point: ``steinchaos.cli.main``
with a config file (and a kernel JSON file where the command takes one),
exactly as a user runs the ``steinchaos`` command, or a library function
for the oracles the CLI does not expose.  Library functions are looked up
on their module at call time, so the tracer's rebinding is seen.

An operation has four parts: ``prepare`` (untimed; fresh inputs, so no
cached dense array carries over from an earlier pass), ``run`` (timed),
``collect`` (untimed; the output as flat ``key -> value`` pairs plus the
raw bytes that must repeat exactly) and ``checks`` (untimed; identities
that hold for every seed).  ``seeded(key)`` says which outputs depend on
the seed: only those are exempt from the reference comparison at seeds
other than ``DEFAULT_SEED``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from steinchaos import bounds, chaos, cli, pearson, tensors

DEFAULT_SEED = 0


@dataclass
class Op:
    name: str
    run: Callable[[object], object]
    collect: Callable[[object], tuple[dict, bytes]]
    prepare: Callable[[], object] = lambda: None
    checks: Callable[[dict], list[str]] = lambda values: []
    seeded: Callable[[str], bool] = lambda key: False
    cli: bool = False  # raw output is the CSV bytes a steinchaos command wrote


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Op]
    stresses: tuple[str, ...]  # layers whose spans must appear in a traced pass
    bypasses: tuple[str, ...]  # layers that must not appear at all


def _all(key: str) -> bool:
    return True


def _none(key: str) -> bool:
    return False


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}", v, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = value


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class _Cli:
    """One ``steinchaos --config ... --out ...`` invocation and its files."""

    def __init__(self, work: Path, name: str, config: dict):
        self.out = work / "out" / name
        self.out.mkdir(parents=True, exist_ok=True)
        config_path = work / "inputs" / f"{name}.json"
        config_path.write_text(json.dumps(config))
        self.argv = ["--config", str(config_path), "--out", str(self.out)]

    def prepare(self):
        for path in self.out.iterdir():
            path.unlink()

    def run(self, _):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"steinchaos exited with code {code}")

    def collect(self, _):
        manifest = json.loads((self.out / "manifest.json").read_text())
        result = dict(manifest["result"])
        files = result.pop("files")
        values: dict = {}
        _flatten("result", result, values)
        raw = b""
        for name in files:
            data = (self.out / name).read_bytes()
            raw += data
            header, *rows = [line.split(",") for line in data.decode().splitlines()]
            for i, row in enumerate(rows):
                for column, text in zip(header, row):
                    values[f"{name}[{i}].{column}"] = _cell(text)
        return values, raw


def cli_op(work: Path, name: str, config: dict, checks=None, seeded=_none) -> Op:
    call = _Cli(work, name, config)
    return Op(name, call.run, call.collect, call.prepare, checks or (lambda v: []), seeded, True)


def lib_op(name: str, prepare, run, checks=None, seeded=_none) -> Op:
    def collect(values):
        return values, json.dumps(values, sort_keys=True).encode()

    return Op(name, run, collect, prepare, checks or (lambda v: []), seeded)


def _rows(values: dict, csv: str):
    """Group 'csv[i].column' keys back into row dicts."""
    rows: dict[int, dict] = {}
    for key, v in values.items():
        if key.startswith(csv + "["):
            index, column = key[len(csv) + 1:].split("].", 1)
            rows.setdefault(int(index), {})[column] = v
    return [rows[i] for i in sorted(rows)]


# ----------------------------------------------------------------------
# chi2-sweep: tensors dict <-> dense round trip under gamma_bound_single
# ----------------------------------------------------------------------

CHI2_SLOPE = (-0.6, -0.4)  # bound ~ n^(-1/2): the regime of the example


def _chi2_checks(values):
    slope = values["result.slope"]
    lo, hi = CHI2_SLOPE
    if not lo <= slope <= hi:
        return [f"chi2 slope {slope:.4f} outside [{lo}, {hi}]"]
    return []


def chi2_sweep(work: Path, seed: int) -> Workload:
    ops = [cli_op(work, "chi2.h1", {"command": "chi2-example",
                                    "parameters": {"metric": "h1"}}, _chi2_checks)]
    warmup = [cli_op(work, "warmup.chi2", {"command": "chi2-example",
                                           "parameters": {"metric": "h1", "ns": [16, 32]}})]
    return Workload("chi2-sweep", ops, warmup, ("cli", "tensors", "bounds"),
                    ("chaos", "wick", "breuer_major", "simulate", "pearson"))


# ----------------------------------------------------------------------
# bm-rates: the Toeplitz (q=2) and four-index einsum (q=3) paths
# ----------------------------------------------------------------------


def _bm_checks(values):
    problems = []
    for row in _rows(values, "breuer_major.csv"):
        if not rel_close(row["kol_bound"], math.sqrt(row["squared_total"]), 1e-12):
            problems.append(f"n={row['n']}: kol_bound != sqrt(squared_total)")
        if not 0.0 <= row["variance_term"] <= row["squared_total"]:
            problems.append(f"n={row['n']}: variance term outside [0, squared_total]")
    return problems


def bm_rates(work: Path, seed: int) -> Workload:
    def table(name, H, q, ns):
        return cli_op(work, name, {"command": "breuer-major",
                                   "parameters": {"H": H, "q": q, "ns": ns}}, _bm_checks)

    ops = [table("bm.q2", 0.7, 2, [64, 128, 256, 512, 1024, 2048, 4096]),
           table("bm.q3", 0.6, 3, [16, 32, 64, 128])]
    warmup = [table("warmup.bm.q2", 0.7, 2, [64]), table("warmup.bm.q3", 0.6, 3, [16])]
    return Workload("bm-rates", ops, warmup, ("cli", "breuer_major"),
                    ("tensors", "bounds", "chaos", "wick", "simulate", "pearson"))


# ----------------------------------------------------------------------
# mc-verify: Cholesky and circulant-embedding sampling
# ----------------------------------------------------------------------

# Monte Carlo slack of acceptance criterion 7: 3 * DKW at confidence 0.99.
def ks_allowance(count: int) -> float:
    return 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * count))


_MC_SEEDED = (".seed", ".sample_mean", ".sample_var", ".ks_vs_normal", "result.ks")


def _mc_checks(values):
    (row,) = _rows(values, "simulate.csv")
    slack = ks_allowance(row["count"])
    if row["ks_vs_normal"] > row["kol_bound"] + slack:
        return [f"KS {row['ks_vs_normal']:.5f} above bound {row['kol_bound']:.5f} + {slack:.5f}"]
    return []


def mc_verify(work: Path, seed: int) -> Workload:
    mc_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(2)]

    def simulate(name, n, count, mc_seed):
        return cli_op(work, name, {"command": "simulate", "parameters": {
            "H": 0.6, "q": 2, "n": n, "count": count, "seed": mc_seed}},
            _mc_checks, lambda key: key.endswith(_MC_SEEDED))

    ops = [simulate("mc.cholesky", 256, 100_000, mc_seeds[0]),
           simulate("mc.circulant", 2048, 20_000, mc_seeds[1])]
    warmup = [simulate("warmup.mc.cholesky", 256, 1, 1),
              simulate("warmup.mc.circulant", 1025, 1, 2)]
    return Workload("mc-verify", ops, warmup, ("cli", "simulate", "breuer_major"),
                    ("tensors", "bounds", "wick", "pearson"))


# ----------------------------------------------------------------------
# oracle-checks: small-d high-order kernels over non-identity Gram spaces,
# the Wick moment oracle, and the Stein solver
# ----------------------------------------------------------------------


def _random_kernel_obj(rng: np.random.Generator, d: int, q: int) -> dict:
    """Seeded kernel over a random positive definite Gram space, as kernel JSON."""
    a = rng.normal(size=(d, d))
    gram = a @ a.T / d + 0.5 * np.eye(d)
    space = tensors.GramSpace((gram + gram.T) / 2.0)
    coeffs = {idx: rng.uniform(-1.0, 1.0)
              for idx in itertools.combinations_with_replacement(range(d), q)}
    kernel = tensors.SymKernel(space, q, coeffs)
    return (kernel * (float(rng.uniform(0.3, 1.2)) / kernel.norm())).to_json_obj()


def _kernel_file(work: Path, name: str, obj: dict) -> str:
    path = work / "inputs" / f"{name}.kernel.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _bound_checks(values):
    total = values["result.report.squared_total"]
    unsym = values["result.report.unsym_squared_total"]
    if total > unsym * (1.0 + 1e-12):
        return [f"squared_total {total!r} exceeds unsym_squared_total {unsym!r}"]
    return []


def _finite(values):
    return [f"{k} = {v!r} is not finite" for k, v in values.items()
            if isinstance(v, float) and not math.isfinite(v)]


def _moment_op(name, obj, s, checks):
    def prepare():
        return chaos.ChaosVector.single(tensors.SymKernel.from_json_obj(obj))

    return lib_op(name, prepare, lambda F: {"value": chaos.exact_moment(F, s)},
                  checks, _all)


def _orthogonality_check(obj):
    """E[F^2] from the Wick oracle equals the chaos-orthogonality value."""
    def check(values):
        F = chaos.ChaosVector.single(tensors.SymKernel.from_json_obj(obj))
        wick_m2, ortho_m2 = chaos.exact_moment(F, 2), F.second_moment()
        if not rel_close(wick_m2, ortho_m2, 1e-11):
            return [f"exact_moment(F, 2) = {wick_m2!r} != second_moment {ortho_m2!r}"]
        return _finite(values)
    return check


def _second_chaos_check(obj):
    """For order 2: the moment formula equals gauss_bound_single's total."""
    def check(values):
        f = tensors.SymKernel.from_json_obj(obj)
        m2 = chaos.exact_moment(chaos.ChaosVector.single(f), 2)
        moments = bounds.second_chaos_exact_squared(m2, values["value"])
        kernel = bounds.gauss_bound_single(f).squared_total
        if not rel_close(moments, kernel, 1e-11):
            return [f"second_chaos_exact_squared {moments!r} != squared_total {kernel!r}"]
        return _finite(values)
    return check


STEIN_TARGETS = {
    "normal": (pearson.gaussian_spec, 1.0),
    "gamma1": (lambda: pearson.gamma_spec(1.0), 2.0),
    "uniform": (pearson.uniform_spec, 1.0 / 3.0),
}
STEIN_FUNCTIONS = {
    "cos": (math.cos, ()),
    "tanh": (math.tanh, ()),
    "step": (lambda x: 1.0 if x <= 0.5 else 0.0, (0.5,)),
    "bump": (lambda x: math.exp(-x * x), ()),
}


def _stein_op(target, fn_name, grid_size=1201, prefix="oc"):
    make_spec, _ = STEIN_TARGETS[target]
    h, disc = STEIN_FUNCTIONS[fn_name]

    def run(spec):
        chk = pearson.stein_bound_check(pearson.stein_solve(spec, h, discontinuities=disc),
                                        grid_size=grid_size)
        return chk._asdict()

    def checks(values):
        return [f"Stein {k} fails" for k in ("pass6", "passK") if values[k] is not True]

    return lib_op(f"{prefix}.stein.{target}.{fn_name}", make_spec, run, checks)


def _pearson_op(work, target, grid=401, prefix="oc"):
    spec = STEIN_TARGETS[target][0]().to_json_obj()
    variance = STEIN_TARGETS[target][1]

    def checks(values):
        m0, m1, m2 = (values[f"result.moments[{k}]"] for k in range(3))
        problems = []
        if abs(m0 - 1.0) > 1e-8 or abs(m1) > 1e-8:
            problems.append(f"moments 0/1 = {m0!r}, {m1!r}: not a centered density")
        if abs(m2 - variance) > 1e-8:
            problems.append(f"second moment {m2!r} != target variance {variance!r}")
        return problems

    return cli_op(work, f"{prefix}.pearson.{target}",
                  {"command": "pearson", "parameters": dict(spec, grid=grid)}, checks)


def oracle_checks(work: Path, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for cmd, q, d in (("bound", 3, 12), ("gamma", 4, 8), ("gamma", 4, 10)):
        name = f"oc.{cmd}.q{q}d{d}"
        params = {"kernel": _kernel_file(work, name, _random_kernel_obj(rng, d, q))}
        if cmd == "gamma":
            params.update(nu=1.0, metric="h2")
        ops.append(cli_op(work, name, {"command": cmd, "parameters": params},
                          _bound_checks if cmd == "bound" else _finite, _all))

    chi2_obj = _random_kernel_obj(rng, 8, 2)
    ops.append(lib_op("oc.chi2_double.d8",
                      lambda: tensors.SymKernel.from_json_obj(chi2_obj),
                      lambda f: {"value": bounds.chi2_double_bound(f)}, _finite, _all))

    for q, powers in ((2, (3, 4, 5, 6)), (3, (3, 4, 5)), (4, (3, 4))):
        obj = _random_kernel_obj(rng, 4, q)
        for s in powers:
            if s == 3:
                check = _orthogonality_check(obj)
            elif q == 2 and s == 4:
                check = _second_chaos_check(obj)
            else:
                check = _finite
            ops.append(_moment_op(f"oc.moment.q{q}.s{s}", obj, s, check))

    for target in STEIN_TARGETS:
        ops.extend(_stein_op(target, fn) for fn in STEIN_FUNCTIONS)
        ops.append(_pearson_op(work, target))

    warm_rng = np.random.default_rng(2**32 + seed)
    warmup = [
        cli_op(work, "warmup.bound", {"command": "bound", "parameters": {
            "kernel": _kernel_file(work, "warmup.bound", _random_kernel_obj(warm_rng, 3, 3))}}),
        cli_op(work, "warmup.gamma", {"command": "gamma", "parameters": {
            "kernel": _kernel_file(work, "warmup.gamma", _random_kernel_obj(warm_rng, 3, 4)),
            "nu": 1.0, "metric": "h2"}}),
        _moment_op("warmup.moment", _random_kernel_obj(warm_rng, 3, 2), 3, None),
        _stein_op("normal", "cos", grid_size=101, prefix="warmup"),
        _pearson_op(work, "uniform", grid=21, prefix="warmup"),
    ]
    return Workload("oracle-checks", ops, warmup,
                    ("cli", "tensors", "bounds", "chaos", "wick", "pearson"),
                    ("breuer_major", "simulate"))


def join(name: str, *parts: Callable[[Path, int], Workload]):
    """A workload that runs the operations of several parts one after another.

    It stresses every layer some part stresses and bypasses only the layers
    that every part bypasses."""

    def builder(work: Path, seed: int) -> Workload:
        built = [part(work, seed) for part in parts]
        stresses = tuple(dict.fromkeys(layer for w in built for layer in w.stresses))
        bypasses = tuple(layer for layer in built[0].bypasses
                         if all(layer in w.bypasses for w in built))
        return Workload(name, [op for w in built for op in w.ops],
                        [op for w in built for op in w.warmup], stresses, bypasses)

    return builder


# Four parts joined two by two: apart they would allow about 20 s of
# measurement per run, too short to be steady on a shared 2-vCPU machine
# (see bench/README.md).  Each joined workload bypasses the layers the
# other one stresses.
BUILDERS = {
    "chi2-oracles": join("chi2-oracles", chi2_sweep, oracle_checks),
    "bm-rates-mc": join("bm-rates-mc", bm_rates, mc_verify),
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files under work and return its operations."""
    if work.exists():
        shutil.rmtree(work)
    (work / "inputs").mkdir(parents=True)
    return BUILDERS[name](work, seed)
