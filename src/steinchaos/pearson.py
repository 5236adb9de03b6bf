"""Stein equations for absolutely continuous targets with quadratic tau.

A centered density p with support exactly (a, b), a < 0 < b, is encoded by
the mapping

    tau(x) = (int_x^b y p(y) dy) / p(x)   on (a, b),  0 outside,

which determines p back through

    p_tau(x) = exp(-int_0^x y/tau) / (C tau(x))   on (a, b),

provided int_0^b y/tau = +inf and int_a^0 y/tau = -inf (the uniqueness
conditions; for a quadratic tau they amount to tau vanishing at every
finite endpoint).  The Stein equation tau f' - x f = h - E(h) has the
unique bounded continuous solution

    U_tau h(x) = (int_a^x (h - E(h)) p_tau dy) / (tau(x) p_tau(x)),

extended by (h(x) - E(h))/x outside (a, b).  Stein's classical targets are
tau = 1 (standard normal, a = -inf, b = +inf) and tau = 2(x + nu)_+
(centered Gamma on (-nu, inf)); quadratic tau is exactly the centered
Pearson family.

Numerics: expectations integrate the unnormalized weight exp(-I(x))/tau(x)
over panels between the support ends, the origin, the caller's
discontinuities and (for the Stein solution) neighbouring grid points.
I(x) is in closed form for quadratic tau and an adaptive integral
otherwise; every panel at a finite endpoint gets the power substitution
x = endpoint +/- u^2, so the integrable singularity of the weight where tau
vanishes linearly disappears.  Every panel goes through a port of
QUADPACK's adaptive integrators (steinchaos._quadpack: dqagse with the
21-point rule dqk21 on finite panels, dqagie with the transformed 15-point
rule dqk15i on infinite tails), which return what scipy's quad returns on
the same integrand values.  The exponent integral of a callable tau runs on
the same port: I at a fixed ladder of anchors toward each end, once, then
one panel from the anchor nearest each x on its side of the origin.
Each panel is of one kind: plain (x = t), substituted at a finite end or
a tail.  The first rule step of all panels of one call runs in numpy, 128
panels of one kind per array operation, each kind through its own
integrand; the panels it does not settle are bisected further, each
bisection one vector call of the weight.  The solution is evaluated
from the left integral below the origin and from the right integral above
it, keeping the ratio stable deep in the tails.

Every pointwise function here (densities, every tau, the Stein solution u,
h - E h) is evaluated by one helper, _pointwise: a float in gives a float
out, an array keeps its shape, and the points outside (a, b) get 0 or, for
u, the tail form (0 at +-inf).  A scalar user callable (a pdf, a tau, a
test function h) is called over an array by one helper too, _each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._quadpack import finite_step, first_step_done, qag, tail_step

__all__ = [
    "PearsonError",
    "CenteringError",
    "SupportError",
    "ExplosionError",
    "PearsonSpec",
    "gaussian_spec",
    "gamma_spec",
    "uniform_spec",
    "DensityModel",
    "SteinSolution",
    "SteinBoundCheck",
    "PearsonOde",
    "tau_from_density",
    "density_from_tau",
    "stein_solve",
    "stein_bound_check",
    "pearson_classify",
    "char_residual",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
_ENDPOINT_TOL = 1e-9
# panels per numpy pass: 512 x 21 points.  A larger batch makes fewer numpy
# passes per Stein check; 512 is the largest of 256, 384 and 512 that kept
# the chi2-oracles benchmark's peak resident memory median where 128 had it
# (54.19 MB both, five alternating pairs), while a whole ~1200-panel grid in
# one pass raised a Stein check's by ~3 MB
_BATCH_PANELS = 512
# the kinds of DensityModel._panels' panels, the indices of their steps in
# _batch_qag: x = t, x = e +/- t^2 at a finite end e, and a tail
_PLAIN, _SUBSTITUTED, _TAIL = range(3)


class PearsonError(Exception):
    """Base class for density/Stein-equation failures."""


class CenteringError(PearsonError):
    """Raised when a density is not centered within tolerance."""


class SupportError(PearsonError):
    """Raised when a density is not strictly positive on its support."""


class ExplosionError(PearsonError):
    """Raised when the tau uniqueness (divergence) conditions fail."""


@dataclass(frozen=True)
class PearsonSpec:
    """Quadratic tau(x) = alpha x^2 + beta x + gamma on support (a, b)."""

    alpha: float
    beta: float
    gamma: float
    a: float
    b: float

    def __post_init__(self):
        if not self.a < 0.0 < self.b:
            raise PearsonError(f"support must satisfy a < 0 < b, got ({self.a}, {self.b})")
        vals = self.quadratic(np.append(_interior_grid(self.a, self.b, 257), 0.0))  # 0 in (a, b)
        if np.any(vals <= 0.0):
            raise SupportError("tau must be strictly positive inside (a, b)")

    def quadratic(self, x):
        """The raw quadratic, without the support clamp."""
        x = np.asarray(x, dtype=float)
        return self.alpha * x**2 + self.beta * x + self.gamma

    def tau(self, x):
        """tau clamped to 0 outside (a, b) (e.g. 2(x+nu)_+ for the Gamma)."""
        return _pointwise(self.quadratic, self.a, self.b)(x)

    def exponent_integral(self, x):
        """I(x) = int_0^x y / tau(y) dy in closed form, for x in (a, b)."""
        x = np.asarray(x, dtype=float)
        al, be, ga = self.alpha, self.beta, self.gamma
        if al == 0.0 and be == 0.0:
            out = x**2 / (2.0 * ga)
        elif al == 0.0:
            out = x / be - (ga / be**2) * np.log((be * x + ga) / ga)
        else:
            disc = be**2 - 4.0 * al * ga
            lead = np.log(self.quadratic(x) / ga) / (2.0 * al)
            if disc < 0.0:
                root = math.sqrt(-disc)
                j = (2.0 / root) * (
                    np.arctan((2.0 * al * x + be) / root)
                    - math.atan(be / root)
                )
            elif disc == 0.0:
                j = -2.0 / (2.0 * al * x + be) + 2.0 / be
            else:
                root = math.sqrt(disc)
                j = (1.0 / root) * np.log(
                    np.abs(
                        (2.0 * al * x + be - root)
                        * (be + root)
                        / ((2.0 * al * x + be + root) * (be - root))
                    )
                )
            out = lead - (be / (2.0 * al)) * j
        return float(out) if out.ndim == 0 else out

    def check_explosion(self) -> None:
        """Uniqueness conditions: tau must vanish at every finite endpoint."""
        scale = max(abs(self.alpha), abs(self.beta), abs(self.gamma), 1.0)
        for endpoint in (self.a, self.b):
            if math.isfinite(endpoint):
                if abs(self.quadratic(endpoint)) > _ENDPOINT_TOL * scale:
                    raise ExplosionError(
                        f"tau({endpoint:g}) = {self.quadratic(endpoint):g} != 0: "
                        "the divergence conditions fail, the density is not unique"
                    )

    def to_json_obj(self) -> dict:
        def enc(v):
            if v == math.inf:
                return "inf"
            if v == -math.inf:
                return "-inf"
            return v

        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "a": enc(self.a),
            "b": enc(self.b),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PearsonSpec":
        # float() parses the "inf", "+inf" and "-inf" sentinels itself
        return cls(*(float(obj[k]) for k in ("alpha", "beta", "gamma", "a", "b")))


def _moment_exists(spec: PearsonSpec, k: int) -> bool:
    """Whether E|X|^k is finite for the density of spec.  For alpha > 0 (which
    forces an infinite end) tau ~ alpha x^2 makes the density decay like
    |x|^(-2 - 1/alpha), so iff (k - 1) alpha < 1; for alpha <= 0 always."""
    return spec.alpha <= 0.0 or (k - 1) * spec.alpha < 1.0


def gaussian_spec() -> PearsonSpec:
    """tau = 1 on all of R: the standard normal target."""
    return PearsonSpec(0.0, 0.0, 1.0, -math.inf, math.inf)


def gamma_spec(nu: float) -> PearsonSpec:
    """tau = 2(x + nu) on (-nu, inf): the centered Gamma target F(nu)."""
    if nu <= 0:
        raise PearsonError(f"nu must be positive, got {nu}")
    return PearsonSpec(0.0, 2.0, 2.0 * nu, -nu, math.inf)


def uniform_spec() -> PearsonSpec:
    """tau = (1 - x^2)/2 on (-1, 1): the uniform target."""
    return PearsonSpec(-0.5, 0.0, 0.5, -1.0, 1.0)


def _interior_grid(a: float, b: float, count: int) -> np.ndarray:
    lo = a if math.isfinite(a) else -12.0
    hi = b if math.isfinite(b) else 12.0
    span = hi - lo
    return np.linspace(lo + 1e-6 * span, hi - 1e-6 * span, count)


def _each(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """The scalar callable fn called at every point of an array: an array of
    the same shape."""

    def apply(x):
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return apply


def _pointwise(inside, a: float, b: float, outside=None) -> Callable:
    """The one evaluator of the module's pointwise functions: a float in
    gives a float out, and an array keeps its shape.  inside maps the 1-d
    array of the points strictly inside (a, b) to its values there; outside
    maps the array of the other points, which are 0 when it is None."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        live = (flat > a) & (flat < b)
        out = np.zeros_like(flat)
        out[live] = inside(flat[live])
        if outside is not None:
            out[~live] = outside(flat[~live])
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    return evaluate


def _sorted_unique(values) -> np.ndarray:
    """The distinct values, sorted (np.unique would import numpy.ma)."""
    values = np.sort(np.asarray(values, dtype=float))
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _needs_retry(value, err):
    """Where a QUADPACK result misses the relative accuracy _relative_accuracy
    asks for; floats or arrays."""
    return (value != 0.0) & (err > 1e-11 * np.abs(value))


def _relative_accuracy(run) -> float:
    """The value of run(epsabs) -> (value, abserr), a QUADPACK integration at
    epsrel = 1e-12, with a relative-accuracy retry.

    QUADPACK stops as soon as the absolute tolerance is met, which for tiny
    tail integrals can mean a single coarse panel; rerunning with the
    absolute tolerance rescaled to the first estimate restores relative
    accuracy there.  Truly cancelling integrals cannot reach the relative
    target; the better of the two error estimates wins.
    """
    value, err = run(_QUAD_OPTS["epsabs"])
    if _needs_retry(value, err):
        retry, retry_err = run(1e-12 * abs(value))
        if retry_err < err:
            value = retry
    return value


def _batch_qag(steps, t0, t1, kind) -> tuple[np.ndarray, int]:
    """_relative_accuracy on qag over every panel [t0[i], t1[i]]: (values,
    number of panels bisected).  Panel i is of kind kind[i], and
    steps[k](idx, lo, hi) is the first rule over [lo[j], hi[j]] for panels
    idx[j], all of kind k, _BATCH_PANELS at a time.  A panel keeps that value
    where dqagse or dqagie would stop and _relative_accuracy would not rerun;
    the rest go on in qag, each bisection one call of their kind's step.
    Each value depends on its own panel only."""
    out = np.zeros(t0.size)
    refine = []
    for k, step in enumerate(steps):
        panels = np.flatnonzero(kind == k)
        for start in range(0, panels.size, _BATCH_PANELS):
            idx = panels[start : start + _BATCH_PANELS]
            first = step(idx, t0[idx], t1[idx])
            result, abserr = first[:2]
            _, done = first_step_done(*first, _QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"])
            settled = done & ~_needs_retry(result, abserr)
            out[idx[settled]] = result[settled]
            refine.extend(zip(idx[~settled].tolist(), np.column_stack(first)[~settled].tolist()))

    for i, first in refine:
        pair = np.array([i, i])
        step = steps[kind[i]]
        out[i] = _relative_accuracy(
            lambda epsabs: qag(
                lambda lo, hi: step(pair, lo, hi),
                float(t0[i]),
                float(t1[i]),
                epsabs,
                _QUAD_OPTS["epsrel"],
                _QUAD_OPTS["limit"],
                first,
            )[:2]
        )
    return out, len(refine)


def quad(fn, los, his) -> np.ndarray:
    """int fn over each finite panel [los[i], his[i]] through _batch_qag, minus
    the integral over [his[i], los[i]] where his[i] < los[i]; fn maps an
    array of nodes to its values.  Spec targets never call it."""
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    step = lambda idx, lo, hi: finite_step(fn, lo, hi)  # noqa: E731
    return _batch_qag((step,), los, his, np.full(los.size, _PLAIN))[0]


class DensityModel:
    """Numeric density on (a, b): evaluator, normalization and quadrature.

    The unnormalized weight takes a 1-d array of points inside (a, b) and
    returns its values there.  Every model carries its tau: the one given,
    else tau_from_density(model).  quad_panels counts the panels settled by
    the batched first QUADPACK step, quad_fallbacks those the QUADPACK port
    bisects further (see _panels).
    """

    def __init__(
        self,
        a: float,
        b: float,
        unnormalized: Callable[[np.ndarray], np.ndarray],
        *,
        tau: Callable | None = None,
    ):
        if not a < 0.0 < b:
            raise PearsonError(f"support must satisfy a < 0 < b, got ({a}, {b})")
        self.a = float(a)
        self.b = float(b)
        self._weight = unnormalized
        self.tau = tau_from_density(self) if tau is None else tau
        self.quad_panels = 0
        self.quad_fallbacks = 0
        self.normalization = float(self._integrate_weight(lambda x: 1.0, [a], [b])[0])
        if not (math.isfinite(self.normalization) and self.normalization > 0.0):
            raise PearsonError("density weight did not integrate to a positive value")
        mean = self.integrate(lambda x: x)
        if abs(mean) > 1e-8:
            raise CenteringError(f"density mean {mean:.3e} exceeds the 1e-8 tolerance")

    # ------------------------------------------------------------------

    def _panels(self, fn, los, his, shift=0.0) -> np.ndarray:
        """int (fn - shift) * weight over every panel [los[i], his[i]] inside
        the support.

        Each panel is integrated in a variable t: x = e + sign t^2 on a panel
        that touches a finite endpoint e (sign pointing into the support),
        x = c + sign (1 - t)/t for t in (0, 1] on a tail from c to an
        infinite end (QUADPACK's dqagie map) and x = t on any other panel.
        The panels go through _batch_qag, with dqk21, or dqk15i on a tail,
        as the rule, and give what _relative_accuracy on scipy's quad gives
        on the scalar integrand (the tests' oracle).
        """
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
        at_a = (los == self.a) & math.isfinite(self.a)
        at_b = ~at_a & (his == self.b) & math.isfinite(self.b)
        sub = at_a | at_b
        up = np.isinf(his)
        tail = up | np.isinf(los)
        kind = np.where(tail, _TAIL, np.where(sub, _SUBSTITUTED, _PLAIN))
        ends = np.where(at_a, self.a, np.where(at_b, self.b, np.where(up, los, his)))
        signs = np.where(at_a | up, 1.0, -1.0)
        t0 = np.where(sub | tail, 0.0, los)
        t1 = np.where(sub, np.sqrt(his - los), np.where(tail, 1.0, his))

        def values(x):
            # fn - shift and the weight at the 1-d array of points x
            return _each(fn)(x) - shift, self._weight(x)

        def product(x):
            f, w = values(x.ravel())
            return (f * w).reshape(x.shape)

        # the first rule over [lo[k], hi[k]] in the t of panel idx[k], for
        # panels all of one kind
        def on_plain(idx, lo, hi):
            return finite_step(product, lo, hi)

        def on_substituted(idx, lo, hi):
            end = ends[idx, None]
            sign = signs[idx, None]

            def integrand(t):
                x = end + sign * t * t
                # where t^2 underflows next to the end the integrand is 0
                live = x != end
                f = np.zeros_like(x)
                w = np.zeros_like(x)
                f[live], w[live] = values(x[live])
                return 2.0 * t * f * w

            return finite_step(integrand, lo, hi)

        def on_tail(idx, lo, hi):
            return tail_step(product, ends[idx, None], signs[idx, None], lo, hi)

        out, refined = _batch_qag((on_plain, on_substituted, on_tail), t0, t1, kind)
        self.quad_panels += los.size - refined
        self.quad_fallbacks += refined
        return out

    def _integrate_weight(self, fn, los, his, points=(), shift=0.0) -> np.ndarray:
        """int (fn - shift) * weight over each [lo, hi] cut to the support.

        Each interval is split at the points and the origin strictly inside
        it; the panels of all intervals go through one _panels call, and each
        interval sums its panels in order.
        """
        los = np.maximum(np.asarray(los, dtype=float), self.a)
        his = np.minimum(np.asarray(his, dtype=float), self.b)
        cuts = _sorted_unique(np.append(points, 0.0))
        first = np.searchsorted(cuts, los, side="right")
        inner = np.maximum(np.searchsorted(cuts, his, side="left") - first, 0)
        count = np.where(los < his, inner + 1, 0)
        owner = np.repeat(np.arange(los.size), count)
        step = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        k = first[owner] + step  # cuts[k - 1], cuts[k] bound an inner panel
        lo = np.where(step == 0, los[owner], cuts[k - 1])
        hi = np.where(step == inner[owner], his[owner], cuts[np.minimum(k, cuts.size - 1)])
        parts = self._panels(fn, lo, hi, shift)
        return np.bincount(owner, weights=parts, minlength=los.size)

    def _one_sided(self, fn, xs, points=(), shift=0.0) -> np.ndarray:
        """int_a^x (fn - shift) p at each interior x <= 0 and -int_x^b (fn - shift) p
        at each x > 0, in one _integrate_weight call: each side integrates
        over its own tail, so tiny tail values never come out of a cancellation."""
        left = xs <= 0.0
        num = self._integrate_weight(
            fn, np.where(left, self.a, xs), np.where(left, xs, self.b), points, shift
        ) / self.normalization
        return np.where(left, num, -num)

    @classmethod
    def from_pdf(
        cls, pdf: Callable[[float], float], a: float, b: float
    ) -> "DensityModel":
        """Wrap an already-normalized centered density on (a, b).

        Checks int p = 1 within 1e-8, the centering within 1e-8 (through the
        constructor), and strict positivity on an interior sample grid.  The
        model carries tau_from_density(model) as its tau.
        """
        weight = _each(pdf)
        if np.any(weight(_interior_grid(a, b, 129)) <= 0.0):
            raise SupportError("density must be strictly positive inside (a, b)")
        model = cls(a, b, weight)
        if abs(model.normalization - 1.0) > 1e-8:
            raise PearsonError(
                f"density integrates to {model.normalization:.10f}, not 1"
            )
        return model

    # ------------------------------------------------------------------

    def pdf(self, x):
        return _pointwise(lambda xs: self._weight(xs) / self.normalization, self.a, self.b)(x)

    def integrate(self, fn, points=()) -> float:
        """int fn(y) p(y) dy over the support."""
        return float(self._integrate_weight(fn, [self.a], [self.b], points)[0]) / self.normalization

    def moment(self, k: int) -> float:
        """int x^k p by quadrature.  A divergent integral is not detected: the
        QUADPACK error flag is not kept, and it flags hard but finite panels
        too.  For a spec, _moment_exists says whether the moment exists."""
        return self.integrate(lambda x: x**k)

    def effective_range(self) -> tuple[float, float]:
        """Interval outside which the density drops below ~1e-16.

        An infinite end becomes the first of +-0.5, +-1, ..., +-60 where the
        density is at most 1e-16, or +-60.
        """
        steps = 0.5 * np.arange(1, 121)
        lo, hi = self.a, self.b
        if not math.isfinite(lo):
            lo = self._first_negligible(-steps)
        if not math.isfinite(hi):
            hi = self._first_negligible(steps)
        return lo, hi

    def _first_negligible(self, candidates: np.ndarray) -> float:
        negligible = ~(self.pdf(candidates) > 1e-16)
        negligible[-1] = True  # the cap
        return float(candidates[np.argmax(negligible)])


def _spec_density(spec: PearsonSpec) -> DensityModel:
    spec.check_explosion()

    def weight(x: np.ndarray) -> np.ndarray:
        try:
            return np.exp(-spec.exponent_integral(x)) / spec.quadratic(x)
        except ArithmeticError as exc:  # a power or quotient of the float coefficients
            raise PearsonError(f"the closed-form weight of {spec} overflows: {exc}") from None

    return DensityModel(spec.a, spec.b, weight, tau=spec.tau)


def _anchors(end: float) -> np.ndarray:
    """The fixed ladder of exponent-integral anchors from 0 toward one end of
    the support, 0 left out: e (1 - 2^-k) toward a finite end e, down to the
    1e-12 span distance of the divergence probe, and +-1, 2, 4, ..., 2^20,
    past the 1e6 probe, toward an infinite end."""
    if not math.isfinite(end):
        return math.copysign(1.0, end) * 2.0 ** np.arange(21)
    count = math.ceil(math.log2(abs(end) / (1e-12 * max(abs(end), 1.0))))
    return end * (1.0 - 0.5 ** np.arange(1, count + 1))


def _callable_density(tau_fn, a: float, b: float) -> DensityModel:
    ratio = _each(lambda y: y / tau_fn(y))
    # I(x) = int_0^x y/tau at the anchors, once: the panels between
    # neighbouring anchors, summed outward from 0 on each side
    left = _anchors(a)
    nodes = np.concatenate([left[::-1], [0.0], _anchors(b)])
    parts = quad(ratio, nodes[:-1], nodes[1:])
    values = np.concatenate(
        [-np.cumsum(parts[: left.size][::-1])[::-1], [0.0], np.cumsum(parts[left.size :])]
    )

    def exponent(x: np.ndarray) -> np.ndarray:
        # the anchor nearest each x on the side toward 0, plus one panel from
        # it: a pure function of x, whatever else the call holds
        k = np.where(
            x >= 0.0,
            np.searchsorted(nodes, x, side="right") - 1,
            np.searchsorted(nodes, x, side="left"),
        )
        return values[k] + quad(ratio, nodes[k], x)

    # Divergence heuristic: the exponent integral int_0^x y/tau rises to
    # +infinity toward both endpoints whenever the uniqueness conditions
    # hold (that is what extinguishes the density there).  Accept if the
    # probe value is clearly diverged, or still rising by >= 20% across the
    # last six decades of distance; a convergent integral plateaus.
    for sign, endpoint in ((1.0, b), (-1.0, a)):
        if math.isfinite(endpoint):
            probes = endpoint - sign * max(abs(endpoint), 1.0) * np.array([1e-6, 1e-12])
        else:
            probes = sign * np.array([1e3, 1e6])
        near, nearest = exponent(probes).tolist()
        diverges = nearest >= 40.0 or (
            nearest >= 1e-3 and near > 0.0 and nearest / near >= 1.2
        )
        if not diverges:
            raise ExplosionError(
                "numeric divergence heuristic failed near "
                f"{'b' if sign > 0 else 'a'}: int y/tau reached only {nearest:.3g}"
            )

    tau = _each(tau_fn)
    return DensityModel(a, b, lambda x: np.exp(-exponent(x)) / tau(x), tau=_pointwise(tau, a, b))


def density_from_tau(
    spec_or_tau: PearsonSpec | Callable[[float], float],
    a: float | None = None,
    b: float | None = None,
) -> DensityModel:
    """Unique centered density with the given tau on (a, b).

    PearsonSpec inputs use the closed-form exponent integral and the
    analytic uniqueness check; plain callables fall back to adaptive
    quadrature plus a numeric divergence heuristic near the endpoints.
    """
    if isinstance(spec_or_tau, PearsonSpec):
        return _spec_density(spec_or_tau)
    if a is None or b is None:
        raise PearsonError("a and b are required for a callable tau")
    return _callable_density(spec_or_tau, float(a), float(b))


def _as_density(spec_or_density: PearsonSpec | DensityModel) -> DensityModel:
    if isinstance(spec_or_density, PearsonSpec):
        return density_from_tau(spec_or_density)
    return spec_or_density


def tau_from_density(density: DensityModel) -> Callable:
    """tau(x) = (int_x^b y p dy) / p(x) on (a, b), 0 outside; x may be an array.

    For x <= 0 the numerator equals -int_a^x y p dy by centering; that side
    is evaluated from the left, where the integrand keeps one sign, so the
    tiny tail values never come out of a cancellation (DensityModel._one_sided).
    """

    def inside(xs):
        p = density.pdf(xs)
        # positivity inside the support is validated at construction; an
        # exact zero of p means the tail underflowed, i.e. x is beyond the
        # numerically representable support, and tau is 0 there
        live = p > 0.0
        out = np.zeros_like(xs)
        out[live] = -density._one_sided(lambda y: y, xs[live]) / p[live]
        return out

    return _pointwise(inside, density.a, density.b)


@dataclass(frozen=True)
class PearsonOde:
    """Log-derivative identity p'/p = (a0 + a1 x)/(b0 + b1 x + b2 x^2).

    ``derived`` carries the sign convention forced by differentiating
    tau p = int_x^b y p, i.e. p'/p = -(x + tau')/tau; ``printed`` echoes the
    textbook coefficient table (a0 = beta, a1 = 2 alpha + 1, ...) verbatim.
    """

    derived: tuple[float, float, float, float, float]
    printed: tuple[float, float, float, float, float]


def pearson_classify(spec: PearsonSpec) -> PearsonOde:
    derived = (
        -spec.beta,
        -(2.0 * spec.alpha + 1.0),
        spec.gamma,
        spec.beta,
        spec.alpha,
    )
    printed = (
        spec.beta,
        2.0 * spec.alpha + 1.0,
        spec.gamma,
        spec.beta,
        spec.alpha,
    )
    return PearsonOde(derived=derived, printed=printed)


class SteinSolution:
    """Solved Stein equation tau u' - x u = h - E(h) for one test function.

    u and u_prime take floats or arrays: one DensityModel._one_sided call per
    call covers all its interior points.  on_grid sums panels between grid
    points instead.  Both stay: on_grid built on u's one-sided integrals was
    ~50x slower on a Stein-check grid, and u takes any points, so it is
    on_grid's oracle in the tests."""

    def __init__(
        self,
        density: DensityModel,
        h: Callable[[float], float],
        discontinuities: Sequence[float] = (),
    ):
        self.density = density
        self.h = h
        self.discontinuities = tuple(float(p) for p in discontinuities)
        self.expected_h = density.integrate(h, points=self.discontinuities)

    @property
    def a(self) -> float:
        return self.density.a

    @property
    def b(self) -> float:
        return self.density.b

    def _centered(self, x):
        """h - E h at every point, inside (a, b) or not (+-inf included);
        float in, float out; array in, array out."""
        centered = lambda xs: _each(self.h)(xs) - self.expected_h  # noqa: E731
        return _pointwise(centered, self.a, self.b, centered)(x)

    def u(self, x):
        """The unique bounded continuous solution: inside (a, b) the one-sided
        integral of (h - E h) p over tau p, outside (h - E h)/x, and 0 at
        +-inf, the limit of (h - E h)/x for bounded h, where h is not called;
        x may be an array."""
        density = self.density

        def inside(xs):
            numerators = density._one_sided(self.h, xs, self.discontinuities, self.expected_h)
            return numerators / (density.tau(xs) * density.pdf(xs))

        def outside(xs):
            out = np.zeros_like(xs)
            tail = ~np.isinf(xs)
            out[tail] = self._centered(xs[tail]) / xs[tail]
            return out

        return _pointwise(inside, self.a, self.b, outside)(x)

    def u_prime(self, x):
        """u'(x) inside (a, b) through the equation from u(x); x may be an array."""
        x_arr = np.asarray(x, dtype=float)
        if not ((x_arr > self.a) & (x_arr < self.b)).all():
            raise PearsonError("u' is only defined inside the support")
        out = self._u_prime_from_u(x_arr, self.u(x_arr))
        return float(out) if x_arr.ndim == 0 else out

    def _u_prime_from_u(self, xs: np.ndarray, u_vals):
        """u' = (h - E h + x u)/tau at the interior points xs, given u there."""
        return (self._centered(xs) + xs * u_vals) / self.density.tau(xs)

    def on_grid(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, u') on an increasing interior grid: u via cumulative panels,
        u' from the equation at each grid point.

        Points at or below the origin accumulate the left integral outward
        from a; points above accumulate the right integral inward from b.
        Both sides are sums of same-scale panels, so the tiny tail values of
        the numerator keep their relative accuracy (a single prefix sum
        anchored on one side would cancel catastrophically on the other).
        The panels of both sides are integrated in one batch.
        """
        xs = np.asarray(xs, dtype=float)
        if not ((xs > self.a) & (xs < self.b)).all():
            raise PearsonError("grid points must lie inside (a, b)")
        if not (np.diff(xs) > 0).all():
            raise PearsonError("grid must be strictly increasing")
        nneg = int(np.sum(xs <= 0.0))
        # panel i of the left side is (edges[i], edges[i + 1]) for i < nneg;
        # the right side skips the panel across the origin
        edges = np.concatenate([[self.a], xs, [self.b]])
        first = np.concatenate([np.arange(nneg), np.arange(nneg + 1, xs.size + 1)])
        density = self.density
        parts = density._integrate_weight(
            self.h, edges[first], edges[first + 1], self.discontinuities,
            shift=self.expected_h,
        ) / density.normalization
        numerators = np.concatenate(
            [np.cumsum(parts[:nneg]), np.cumsum(-parts[nneg:][::-1])[::-1]]
        )
        u_vals = numerators / (density.tau(xs) * density.pdf(xs))
        return u_vals, self._u_prime_from_u(xs, u_vals)


def stein_solve(
    spec_or_density: PearsonSpec | DensityModel,
    h: Callable[[float], float],
    discontinuities: Sequence[float] = (),
) -> SteinSolution:
    """Solve tau u' - x u = h - E(h) for bounded piecewise-continuous h."""
    return SteinSolution(_as_density(spec_or_density), h, discontinuities)


class SteinBoundCheck(NamedTuple):
    sup_xu: float
    sup_tau_du: float
    pass6: bool
    passK: bool
    sup_h: float


def stein_bound_check(sol: SteinSolution, grid_size: int = 1201) -> SteinBoundCheck:
    """Grid suprema of |x u| and |tau u'| against the 6 sup|h| and K sup|h| bounds.

    u comes from sol.on_grid (which evaluates tau), and tau u' is read from
    the Stein equation, tau u' = h - E h + x u, not formed as tau times u'.
    K = 2 max{3, 1/|a|, 1/|b|} with 1/inf = 0; the supremum for the K check
    runs over the whole line, where outside the support the tail form
    u = (h - E h)/x gives x u = h - E h.
    """
    lo, hi = sol.density.effective_range()
    span = hi - lo
    eps = 1e-5 * span
    inner = np.linspace(lo + eps, hi - eps, grid_size)
    # each distinct discontinuity inside the grid, once, with a point on
    # either side of it
    jumps = _sorted_unique(sol.discontinuities)
    jumps = jumps[(lo + eps < jumps) & (jumps < hi - eps)]
    inner = np.sort(np.concatenate([inner, jumps - 1e-9 * span, jumps + 1e-9 * span]))
    u_vals = sol.on_grid(inner)[0]
    h_vals = _each(sol.h)(inner)
    xu = inner * u_vals
    tau_du = h_vals - sol.expected_h + xu
    sup_xu = float(np.max(np.abs(xu)))
    sup_tau_du = float(np.max(np.abs(tau_du)))
    sup_pair = float(np.max(np.abs(xu) + np.abs(tau_du)))
    sup_h = float(np.max(np.abs(h_vals)))

    outside_xu = 0.0
    for endpoint, direction in ((sol.a, -1.0), (sol.b, 1.0)):
        if math.isfinite(endpoint):
            for step in (1e-6, 0.1, 1.0, 10.0):
                h_x = sol.h(endpoint + direction * step)
                outside_xu = max(outside_xu, abs(h_x - sol.expected_h))
                sup_h = max(sup_h, abs(h_x))

    inv_a = 0.0 if not math.isfinite(sol.a) else 1.0 / abs(sol.a)
    inv_b = 0.0 if not math.isfinite(sol.b) else 1.0 / abs(sol.b)
    k_constant = 2.0 * max(3.0, inv_a, inv_b)
    slack = 1e-9 + 1e-9 * sup_h
    pass6 = sup_pair <= 6.0 * sup_h + slack
    passK = max(sup_pair, outside_xu) <= k_constant * sup_h + slack
    return SteinBoundCheck(sup_xu, sup_tau_du, pass6, passK, sup_h)


def char_residual(
    spec_or_density: PearsonSpec | DensityModel,
    f: Callable[[float], float],
    fprime: Callable[[float], float] | None = None,
) -> float:
    """E[tau(Z) f'(Z) - Z f(Z)]; zero exactly when Z has the tau-density."""
    density = _as_density(spec_or_density)
    if fprime is None:
        step = 1e-6

        def fprime(x, _f=f):
            return (_f(x + step) - _f(x - step)) / (2.0 * step)

    def integrand(x: float) -> float:
        return density.tau(x) * fprime(x) - x * f(x)

    value = density.integrate(integrand)
    if not math.isfinite(value):
        raise PearsonError("tau f' - x f is not integrable against the density")
    return value
