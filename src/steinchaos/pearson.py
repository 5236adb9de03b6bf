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
the same integrand values; scipy's quad itself is left only in the
exponent integral of a callable tau, and is imported on its first call.
The first rule step of all panels of one call runs in numpy, 128 panels
per array operation; the panels it does not settle are bisected further,
each bisection one vector call of the weight.  The solution is evaluated
from the left integral below the origin and from the right integral above
it, keeping the ratio stable deep in the tails.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._quadpack import DQK21, finite_step, first_step_done, gauss_kronrod, qag, tail_step

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
# dqk21's nodes, in half-lengths from the panel centre
_NODES = DQK21.nodes
# panels per numpy pass: 128 x 21 points keep every temporary array small
# enough to be reused from the heap (a whole ~1200-panel grid in one pass
# raised the peak resident memory of a Stein check by ~3 MB)
_BATCH_PANELS = 128


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
        grid = _interior_grid(self.a, self.b, 257)
        vals = self.quadratic(grid)
        if np.any(vals <= 0.0):
            raise SupportError("tau must be strictly positive inside (a, b)")

    def quadratic(self, x):
        """The raw quadratic, without the support clamp."""
        x = np.asarray(x, dtype=float)
        return self.alpha * x**2 + self.beta * x + self.gamma

    def tau(self, x):
        """tau clamped to 0 outside (a, b) (e.g. 2(x+nu)_+ for the Gamma)."""
        x = np.asarray(x, dtype=float)
        out = np.where((x > self.a) & (x < self.b), self.quadratic(x), 0.0)
        return float(out) if out.ndim == 0 else out

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
        def dec(v):
            if v in ("inf", "+inf"):
                return math.inf
            if v == "-inf":
                return -math.inf
            return float(v)

        return cls(
            float(obj["alpha"]),
            float(obj["beta"]),
            float(obj["gamma"]),
            dec(obj["a"]),
            dec(obj["b"]),
        )


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


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call, with its
    IntegrationWarnings ignored.

    Spec targets never call it, so importing pearson loads no scipy.
    Roundoff-level warnings are expected at the tolerances used here; the
    relative-accuracy retry and the callers' own checks control accuracy.
    """
    from scipy.integrate import IntegrationWarning, quad as scipy_quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return scipy_quad(*args, **kwargs)


def _interior_grid(a: float, b: float, count: int) -> np.ndarray:
    lo = a if math.isfinite(a) else min(-12.0, -1.0)
    hi = b if math.isfinite(b) else max(12.0, 1.0)
    span = hi - lo
    return np.linspace(lo + 1e-6 * span, hi - 1e-6 * span, count)


def _elementwise(fn: Callable[[float], float]) -> Callable:
    """fn applied point by point: float in, float out; array in, array out."""

    def apply(x):
        x_arr = np.asarray(x, dtype=float)
        out = np.array([fn(v) for v in x_arr.ravel().tolist()], dtype=float)
        return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)

    return apply


def _kronrod21(values: np.ndarray, hlgth: np.ndarray):
    """QUADPACK dqk21 on each row of integrand values at centre + hlgth * _NODES:
    (result, abserr, resasc)."""
    result, abserr, _, resasc = gauss_kronrod(values, hlgth, DQK21)
    return result, abserr, resasc


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


class DensityModel:
    """Numeric density on (a, b): evaluator, normalization and quadrature.

    The unnormalized weight takes a 1-d array of points inside (a, b) and
    returns its values there.  quad_panels counts the panels settled by the
    batched first QUADPACK step, quad_fallbacks those the QUADPACK port
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
        self.tau = tau
        self.quad_panels = 0
        self.quad_fallbacks = 0
        self.normalization = float(self._integrate_weight(lambda x: 1.0, [a], [b])[0])
        if not (math.isfinite(self.normalization) and self.normalization > 0.0):
            raise PearsonError("density weight did not integrate to a positive value")
        mean = self.integrate(lambda x: x)
        if abs(mean) > 1e-8:
            raise CenteringError(f"density mean {mean:.3e} exceeds the 1e-8 tolerance")

    # ------------------------------------------------------------------

    @staticmethod
    def _quad_rel(integrand, lo, hi):
        """_relative_accuracy on scipy's quad with a scalar integrand.

        The deliberate test oracle of _panels, which runs the same rule on
        the vector port of QUADPACK; the library calls it nowhere else.
        """
        return _relative_accuracy(
            lambda epsabs: quad(integrand, lo, hi, **dict(_QUAD_OPTS, epsabs=epsabs))
        )

    def _panels(self, fn, los, his, shift=0.0) -> np.ndarray:
        """int (fn - shift) * weight over every panel [los[i], his[i]] inside
        the support.

        Each panel is integrated in a variable t: x = e + sign t^2 on a panel
        that touches a finite endpoint e (sign pointing into the support),
        x = c + sign (1 - t)/t for t in (0, 1] on a tail from c to an
        infinite end (QUADPACK's dqagie map) and x = t on any other panel.
        The first QUADPACK step, dqk21 or dqk15i on a tail, runs on
        _BATCH_PANELS panels at a time.  A panel keeps that value where
        dqagse or dqagie would stop there and _relative_accuracy would not
        rerun; the rest continue in the QUADPACK port, each bisection one
        call of the weight on the nodes of both halves, and give what
        _quad_rel gives on the scalar integrand.
        """
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
        at_a = (los == self.a) & math.isfinite(self.a)
        at_b = ~at_a & (his == self.b) & math.isfinite(self.b)
        sub = at_a | at_b
        up = np.isinf(his)
        tail = up | np.isinf(los)
        ends = np.select([at_a, at_b, up], [self.a, self.b, los], his)
        signs = np.where(at_a | up, 1.0, -1.0)
        t0 = np.where(sub | tail, 0.0, los)
        t1 = np.select([sub, tail], [np.sqrt(his - los), 1.0], his)

        def fn_weight(x, live):
            fvals = np.zeros_like(x)
            wvals = np.zeros_like(x)
            fvals[live] = np.array([fn(v) for v in x[live].tolist()], dtype=float) - shift
            wvals[live] = self._weight(x[live])
            return fvals, wvals

        def step(idx, lo, hi):
            # the first rule over [lo[k], hi[k]] in the t of panel idx[k];
            # the panels are all tails or none
            end = ends[idx, None]
            sign = signs[idx, None]
            if tail[idx[0]]:

                def tail_values(x):
                    fvals, wvals = fn_weight(x, np.full(x.shape, True))
                    return fvals * wvals

                return tail_step(tail_values, end, sign, lo, hi)
            isub = sub[idx, None]

            def values(t):
                x = np.where(isub, end + sign * t * t, t)
                fvals, wvals = fn_weight(x, ~(isub & (x == end)))
                return np.where(isub, 2.0 * t * fvals * wvals, fvals * wvals)

            return finite_step(values, lo, hi)

        out = np.zeros(los.size)
        refine = []
        for kind in (False, True):
            panels = np.flatnonzero(tail == kind)
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
        self.quad_panels += los.size - len(refine)
        self.quad_fallbacks += len(refine)
        return out

    def _integrate_weight(self, fn, los, his, points=(), shift=0.0) -> np.ndarray:
        """int (fn - shift) * weight over each [lo, hi] cut to the support.

        Each interval is split at the points and the origin strictly inside
        it; the panels of all intervals go through one _panels call, and each
        interval sums its panels in order.
        """
        los = np.maximum(np.asarray(los, dtype=float), self.a)
        his = np.minimum(np.asarray(his, dtype=float), self.b)
        cuts = np.unique(np.append(np.asarray(points, dtype=float), 0.0))
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

    @classmethod
    def from_pdf(
        cls, pdf: Callable[[float], float], a: float, b: float
    ) -> "DensityModel":
        """Wrap an already-normalized centered density on (a, b).

        Checks int p = 1 within 1e-8, the centering within 1e-8 (through the
        constructor), and strict positivity on an interior sample grid.  The
        model carries tau_from_density(model) as its tau.
        """
        weight = _elementwise(pdf)
        if np.any(weight(_interior_grid(a, b, 129)) <= 0.0):
            raise SupportError("density must be strictly positive inside (a, b)")
        model = cls(a, b, weight)
        if abs(model.normalization - 1.0) > 1e-8:
            raise PearsonError(
                f"density integrates to {model.normalization:.10f}, not 1"
            )
        model.tau = tau_from_density(model)
        return model

    # ------------------------------------------------------------------

    def pdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x_arr)
        out = np.zeros_like(flat)
        inside = (flat > self.a) & (flat < self.b)
        out[inside] = self._weight(flat[inside]) / self.normalization
        return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)

    def integrate(self, fn, lo=None, hi=None, points=()) -> float:
        """int fn(y) p(y) dy over (lo, hi) intersected with the support."""
        lo = self.a if lo is None else lo
        hi = self.b if hi is None else hi
        return float(self._integrate_weight(fn, [lo], [hi], points)[0]) / self.normalization

    def moment(self, k: int) -> float:
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
        return np.exp(-spec.exponent_integral(x)) / spec.quadratic(x)

    return DensityModel(spec.a, spec.b, weight, tau=spec.tau)


def _callable_density(tau_fn, a: float, b: float) -> DensityModel:
    @lru_cache(maxsize=100_000)
    def inner(x: float) -> float:
        return quad(lambda y: y / tau_fn(y), 0.0, x, **_QUAD_OPTS)[0]

    # Divergence heuristic: the exponent integral int_0^x y/tau rises to
    # +infinity toward both endpoints whenever the uniqueness conditions
    # hold (that is what extinguishes the density there).  Accept if the
    # probe value is clearly diverged, or still rising by >= 20% across the
    # last six decades of distance; a convergent integral plateaus.
    for sign, endpoint in ((1.0, b), (-1.0, a)):
        if math.isfinite(endpoint):
            span = max(abs(endpoint), 1.0)
            near = inner(endpoint - sign * 1e-6 * span)
            nearest = inner(endpoint - sign * 1e-12 * span)
        else:
            near = inner(sign * 1e3)
            nearest = inner(sign * 1e6)
        diverges = nearest >= 40.0 or (
            nearest >= 1e-3 and near > 0.0 and nearest / near >= 1.2
        )
        if not diverges:
            raise ExplosionError(
                "numeric divergence heuristic failed near "
                f"{'b' if sign > 0 else 'a'}: int y/tau reached only {nearest:.3g}"
            )

    return DensityModel(
        a,
        b,
        _elementwise(lambda x: math.exp(-inner(x)) / tau_fn(x)),
        tau=_elementwise(lambda x: tau_fn(x) if a < x < b else 0.0),
    )


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
    tiny tail values never come out of a cancellation.
    """

    def tau(x):
        x_arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x_arr)
        out = np.zeros_like(flat)
        p = density.pdf(flat)
        # positivity inside the support is validated at construction; an
        # exact zero of p means the tail underflowed, i.e. x is beyond the
        # numerically representable support, and tau is 0 there
        live = (flat > density.a) & (flat < density.b) & (p > 0.0)
        xs = flat[live]
        left = xs <= 0.0
        num = density._integrate_weight(
            lambda y: y,
            np.where(left, density.a, xs),
            np.where(left, xs, density.b),
        ) / density.normalization
        out[live] = np.where(left, -num, num) / p[live]
        return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)

    return tau


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
    """Solved Stein equation tau u' - x u = h - E(h) for one test function."""

    def __init__(
        self,
        density: DensityModel,
        h: Callable[[float], float],
        discontinuities: Sequence[float] = (),
    ):
        if density.tau is None:
            raise PearsonError("the density model must carry its tau")
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

    def _centered(self, y: float) -> float:
        return self.h(y) - self.expected_h

    def u(self, x: float) -> float:
        """The unique bounded continuous solution on (a, b); tail form outside."""
        if not self.a < x < self.b:
            if x == 0.0:
                raise PearsonError("the tail formula (h - E h)/x needs x != 0")
            return self._centered(x) / x
        return float(self.on_grid(np.array([x]))[0][0])

    def u_prime(self, x):
        """u'(x) inside (a, b) through the equation, with u(x) point by point;
        x may be an array."""
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr <= self.a) or np.any(x_arr >= self.b):
            raise PearsonError("u' is only defined inside the support")
        flat = x_arr.ravel()
        u_vals = np.array([self.u(v) for v in flat.tolist()], dtype=float)
        out = self._u_prime_from_u(flat, u_vals).reshape(x_arr.shape)
        return float(out) if out.ndim == 0 else out

    def _u_prime_from_u(self, xs: np.ndarray, u_vals: np.ndarray) -> np.ndarray:
        """u' = (h - E h + x u)/tau at the interior points xs, given u there."""
        h_vals = np.array([self.h(v) for v in xs.tolist()], dtype=float)
        return (h_vals - self.expected_h + xs * u_vals) / self.density.tau(xs)

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
        if np.any(xs <= self.a) or np.any(xs >= self.b):
            raise PearsonError("grid points must lie inside (a, b)")
        if np.any(np.diff(xs) <= 0):
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

    K = 2 max{3, 1/|a|, 1/|b|} with 1/inf = 0; the supremum for the K check
    runs over the whole line, using the tail form of the solution outside
    the support.
    """
    lo, hi = sol.density.effective_range()
    span = hi - lo
    eps = 1e-5 * span
    inner = np.linspace(lo + eps, hi - eps, grid_size)
    for p in sol.discontinuities:
        if lo + eps < p < hi - eps:
            inner = np.sort(
                np.concatenate([inner, [p - 1e-9 * span, p + 1e-9 * span]])
            )
    u_vals, du_vals = sol.on_grid(inner)
    tau_vals = sol.density.tau(inner)
    h_vals = np.array([sol.h(x) for x in inner])
    sup_xu = float(np.max(np.abs(inner * u_vals)))
    sup_tau_du = float(np.max(np.abs(tau_vals * du_vals)))
    sup_pair = float(np.max(np.abs(inner * u_vals) + np.abs(tau_vals * du_vals)))
    sup_h = float(np.max(np.abs(h_vals)))

    outside_xu = 0.0
    for endpoint, direction in ((sol.a, -1.0), (sol.b, 1.0)):
        if math.isfinite(endpoint):
            for step in (1e-6, 0.1, 1.0, 10.0):
                x = endpoint + direction * step
                if x != 0.0:
                    outside_xu = max(outside_xu, abs(x * sol.u(x)))
                    sup_h = max(sup_h, abs(sol.h(x)))

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
    if density.tau is None:
        raise PearsonError("the density model must carry its tau")
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
