"""Span recorder that wraps the public functions of each steinchaos module.

Nothing in ``src/`` is edited: ``Tracer.install`` rebinds every module
attribute that refers to a wrapped function (modules import functions by
name, so ``contract`` lives in ``tensors``, ``bounds`` and ``chaos`` at
once) and ``Tracer.uninstall`` puts the originals back.  The benchmark
installs the wrappers only around the timed call of a traced operation, so
untraced passes run the unmodified code and input preparation and output
checks never produce spans.

A span is ``(op, name, start, end, parent, attrs)``: ``op`` is the id the
spans of one operation share, ``parent`` the index of the enclosing span
(-1 at top level) and ``attrs`` a small dict of sizes or counts, or None.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc

PACKAGE = "steinchaos"
LAYERS = ("cli", "tensors", "bounds", "chaos", "wick", "breuer_major", "simulate", "pearson")


def _dim_attrs(args, kwargs):
    return {"d": args[0].space.dim, "q": args[0].order}


def _bm_attrs(args, kwargs):
    inst = args[0]
    return {"q": inst.q, "n": inst.n}


def _zn_attrs(args, kwargs):
    return {"n": args[2], "count": args[3]}


def _increments_done(attrs, result):
    attrs["generator"] = result.meta["generator"]
    attrs["fallback"] = bool(result.meta["circulant_fallback"])


# Per-function hooks: (attrs from the arguments, update of attrs from the result).
HOOKS = {
    # from_dense is a classmethod: a[0] is the class, a[2] the dense array
    "tensors.from_dense": (lambda a, k: {"entries": int(getattr(a[2], "size", 1)),
                                         "q": int(getattr(a[2], "ndim", 0))}, None),
    "bounds.gamma_bound_single": (_dim_attrs, None),
    "bounds.gauss_bound_single": (_dim_attrs, None),
    "breuer_major.bm_bound_exact": (_bm_attrs, None),
    "breuer_major.sigma": (lambda a, k: {"key": [float(a[0]), int(a[1])]}, None),
    "simulate.sample_fbm_increments": (lambda a, k: {}, _increments_done),
    "simulate.sample_Zn": (_zn_attrs, None),
    "wick.poly_gaussian_expectation": (lambda a, k: {"terms": len(a[0])}, None),
}


class Tracer:
    """Owns the spans of one run and the rebinding of wrapped functions."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self._bindings = self._plan()

    # ------------------------------------------------------------------
    # which functions, and where each one is bound
    # ------------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _targets(self):
        """Public module functions, the named methods, and the quad binding."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            names = getattr(mod, "__all__", None)
            if names is None:  # cli declares no __all__; its public functions
                names = [n for n, v in vars(mod).items()
                         if not n.startswith("_") and inspect.isfunction(v)
                         and v.__module__ == mod.__name__]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    out.append((f"{layer}.{name}", obj))
        tensors = importlib.import_module(f"{PACKAGE}.tensors")
        pearson = importlib.import_module(f"{PACKAGE}.pearson")
        methods = [
            ("tensors.from_dense", tensors.SymKernel, "from_dense"),
            ("tensors.to_dense", tensors.SymKernel, "to_dense"),
            ("tensors.gram_space", tensors.GramSpace, "__init__"),
        ]
        # scipy's quad as bound in pearson: the calls pearson makes into QUADPACK
        return out, methods, ("scipy.quad", pearson, "quad")

    def _plan(self):
        functions, methods, quad = self._targets()
        plan = []
        modules = self._modules()
        for span_name, original in functions:
            wrapped = self._wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, attr, original, wrapped))
        for span_name, cls, attr in methods:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__))
            else:
                wrapped = self._wrap(span_name, raw)
            plan.append((cls, attr, raw, wrapped))
        span_name, mod, attr = quad
        original = getattr(mod, attr)
        plan.append((mod, attr, original, self._wrap(span_name, original)))
        return plan

    def _wrap(self, span_name, fn):
        attrs_fn, done_fn = HOOKS.get(span_name, (None, None))
        if span_name == "simulate.sample_Zn":
            fn = _with_tracemalloc(fn)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (tracer.op, span_name, start, end, parent, attrs)
            if done_fn:
                done_fn(attrs, result)
            if span_name == "simulate.sample_Zn":  # _with_tracemalloc returned (result, peak)
                result, attrs["peak_mb"] = result
            return result

        return traced

    # ------------------------------------------------------------------

    def install(self, op: int) -> None:
        self.op = op
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)
        self.op = -1

    def missed_bindings(self) -> list[str]:
        """Attributes of package modules that still hold an unwrapped original
        while the wrappers are installed; must be empty."""
        originals = {id(p[2]) for p in self._bindings}
        self.install(-1)
        try:
            missed = []
            for mod in self._modules():
                for attr, value in vars(mod).items():
                    if id(value) in originals and inspect.isfunction(value):
                        missed.append(f"{mod.__name__}.{attr}")
            return missed
        finally:
            self.uninstall()


def _with_tracemalloc(fn):
    """Run fn under tracemalloc and return (result, peak traced MB)."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak / 2**20

    return measured


# ----------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ----------------------------------------------------------------------


def _inclusive(spans, pred):
    """Summed duration of spans matching pred, not counting a matching span
    nested inside another matching span twice."""
    total = 0.0
    for s in spans:
        if not pred(s):
            continue
        parent, nested = s[4], False
        while parent >= 0:
            if pred(spans[parent]):
                nested = True
                break
            parent = spans[parent][4]
        if not nested:
            total += s[3] - s[2]
    return total


def pass_metrics(spans: list, first: int, last: int, op_seconds: float, csv_bytes: int) -> dict:
    """Per-layer metrics of the spans with index in [first, last) (one pass).

    op_seconds is the summed duration of the pass's timed operations."""
    local = []
    offset = first
    for s in spans[first:last]:
        local.append((s[0], s[1], s[2], s[3], s[4] - offset if s[4] >= 0 else -1, s[5]))
    child = [0.0] * len(local)
    for s in local:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(local):
        layer = s[1].split(".", 1)[0]
        if layer in self_by_layer:
            self_by_layer[layer] += (s[3] - s[2]) - child[i]

    def named(name):
        return lambda s: s[1] == name

    def calls(name):
        return sum(1 for s in local if s[1] == name)

    def attr_sum(name, key):
        return sum(s[5][key] for s in local if s[1] == name)

    def parent_layer(s):
        return local[s[4]][1].split(".", 1)[0] if s[4] >= 0 else None

    seen, redundant = set(), 0
    for s in local:
        if s[1] == "breuer_major.sigma":
            key = tuple(s[5]["key"])
            redundant += key in seen
            seen.add(key)
    sigma_calls = calls("breuer_major.sigma")
    zn_time = _inclusive(local, named("simulate.sample_Zn"))
    rows = attr_sum("simulate.sample_Zn", "count")
    top = sum(s[3] - s[2] for s in local if s[4] < 0)

    m = {
        "cli.self_s": self_by_layer["cli"],
        "cli.csv_bytes": csv_bytes,
        "tensors.from_dense_s": _inclusive(local, named("tensors.from_dense")),
        "tensors.from_dense_calls": calls("tensors.from_dense"),
        "tensors.from_dense_entries": attr_sum("tensors.from_dense", "entries"),
        "tensors.to_dense_s": _inclusive(local, named("tensors.to_dense")),
        "tensors.to_dense_calls": calls("tensors.to_dense"),
        "tensors.symmetrize_s": _inclusive(local, named("tensors.symmetrize")),
        "tensors.symmetrize_calls": calls("tensors.symmetrize"),
        "tensors.contract_s": _inclusive(local, named("tensors.contract")),
        "tensors.contract_calls": calls("tensors.contract"),
        "tensors.gram_space_s": _inclusive(local, named("tensors.gram_space")),
        "tensors.gram_space_calls": calls("tensors.gram_space"),
        "tensors.self_s": self_by_layer["tensors"],
        "bounds.gamma_bound_single_s": _inclusive(local, named("bounds.gamma_bound_single")),
        "bounds.gauss_bound_single_s": _inclusive(local, named("bounds.gauss_bound_single")),
        "bounds.chi2_double_bound_s": _inclusive(local, named("bounds.chi2_double_bound")),
        "bounds.self_s": self_by_layer["bounds"],
        "chaos.exact_moment_s": _inclusive(local, named("chaos.exact_moment")),
        "chaos.exact_moment_calls": calls("chaos.exact_moment"),
        "chaos.derivative_norm_sq_s": _inclusive(local, named("chaos.derivative_norm_sq")),
        "wick.expectation_s": _inclusive(local, named("wick.poly_gaussian_expectation")),
        "wick.poly_terms": attr_sum("wick.poly_gaussian_expectation", "terms"),
        "breuer_major.bm_bound_exact_s.q2": _inclusive(
            local, lambda s: s[1] == "breuer_major.bm_bound_exact" and s[5]["q"] == 2),
        "breuer_major.bm_bound_exact_s.q3": _inclusive(
            local, lambda s: s[1] == "breuer_major.bm_bound_exact" and s[5]["q"] == 3),
        "breuer_major.sigma_s": _inclusive(local, named("breuer_major.sigma")),
        "breuer_major.sigma_calls": sigma_calls,
        "breuer_major.sigma_redundant_ratio": redundant / sigma_calls if sigma_calls else 0.0,
        "simulate.sample_fbm_increments_s.cholesky": _inclusive(
            local, lambda s: s[1] == "simulate.sample_fbm_increments"
            and s[5].get("generator") == "cholesky-toeplitz"),
        "simulate.sample_fbm_increments_s.circulant": _inclusive(
            local, lambda s: s[1] == "simulate.sample_fbm_increments"
            and s[5].get("generator") == "circulant-embedding"),
        "simulate.hermite_s": _inclusive(
            local, lambda s: s[1] == "chaos.hermite" and parent_layer(s) == "simulate"),
        "simulate.empirical_kolmogorov_s": _inclusive(local, named("simulate.empirical_kolmogorov")),
        "simulate.rows": rows,
        "simulate.rows_per_s": rows / zn_time if zn_time > 0 else 0.0,
        "simulate.peak_traced_mb": max(
            (s[5].get("peak_mb", 0.0) for s in local if s[1] == "simulate.sample_Zn"), default=0.0),
        "pearson.stein_bound_check_s": _inclusive(local, named("pearson.stein_bound_check")),
        "pearson.stein_bound_check_calls": calls("pearson.stein_bound_check"),
        "pearson.density_from_tau_s": _inclusive(local, named("pearson.density_from_tau")),
        "pearson.quad_calls": sum(
            1 for s in local if s[1] == "scipy.quad" and parent_layer(s) == "pearson"),
        "pearson.quad_s": _inclusive(
            local, lambda s: s[1] == "scipy.quad" and parent_layer(s) == "pearson"),
        "pearson.self_s": self_by_layer["pearson"],
        "trace.uncovered_s": op_seconds - top,
    }
    return m


def circulant_fallbacks(spans: list) -> int:
    """Sampling calls whose circulant embedding fell back to another generator."""
    return sum(1 for s in spans if s[1] == "simulate.sample_fbm_increments" and s[5]["fallback"])


def layer_calls(spans: list, first: int, last: int) -> dict:
    """Number of spans per layer in [first, last)."""
    out = {layer: 0 for layer in LAYERS}
    for s in spans[first:last]:
        layer = s[1].split(".", 1)[0]
        if layer in out:
            out[layer] += 1
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
