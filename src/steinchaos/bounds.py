"""Closed-form distance bounds for Gaussian and Gamma approximation on chaos.

Every bound here is an explicit polynomial in kernel norms and contraction
norms.  The Gaussian bound for a single chaos of order q is

    E[(1 - q^{-1}||DF||^2)^2]
        = (1 - q! ||f||^2)^2
          + q^2 sum_{r=1}^{q-1} (2q-2r)! (r-1)!^2 binom(q-1, r-1)^4
                ||f ~x_r f||^2,

an identity when the contractions are symmetrized and an upper bound with
the plain contraction norms.  The Gamma/chi^2 analogue replaces the variance
target by 2*nu and adds the midpoint-contraction correction
4 q! ||c_q^{-1} g ~x_{q/2} g - g||^2 with c_q = 1/((q/2)! binom(q-1, q/2-1)^2).
Distance constants: 1 for Kolmogorov/Wasserstein, 2 for total variation,
4 for Fortet-Mourier, and K_1(nu), K_2(nu) for the Gamma target classes.

All four kernel bounds are assembled from one private helper per concept:
_metric_constant (metric alias and distance constant), _variance (the
variance mismatch), _pair_coeff (the exact integer weight of a contraction
product), _midpoint_sq (the Gamma midpoint term) and, for the sum bounds,
_cross_terms (the (i, j, r) sum of contraction norms, which takes
||f x_0 f|| = ||f||^2 from the inner product and forms no f x_0 f tensor).

Each kernel bound first moves its kernels into the orthonormal frame of
their Gram space (``tensors._orthonormal``, one Cholesky factor per space),
so every contraction, symmetrization and norm after that runs under G = I.
One private helper, _toeplitz_gamma_bound, gives the q = 2 Gamma bound of a
symmetric Toeplitz kernel on the standard space from its first column
alone, through the traces of steinchaos._toeplitz; chi2-example runs on it,
and gamma_bound_single on the dense kernel is its oracle.

Reports always carry the term-by-term decomposition so experiments can
attribute error mass to the variance mismatch versus each contraction order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._toeplitz import _entry_sum, _four_cycle
from .chaos import ChaosVector, _pairing_weight, derivative_norm_sq
from .tensors import (
    SymKernel,
    _check_same_space,
    _orthonormal,
    contract,
    gram_inner,
    raw_norm_sq,
    symmetrize,
)

__all__ = [
    "BoundError",
    "BoundReport",
    "GAUSS_METRIC_CONSTANTS",
    "gauss_bound_single",
    "gauss_bound_sum",
    "second_chaos_exact_squared",
    "second_chaos_gamma_exact_squared",
    "second_chaos_gauss_bound",
    "second_chaos_gamma_bound",
    "gamma_bound_single",
    "gamma_bound_sum",
    "chi2_double_bound",
    "stein_constants",
    "midpoint_constant",
]


class BoundError(Exception):
    """Raised on precondition violations of the bound computations."""


GAUSS_METRIC_CONSTANTS = {
    "kolmogorov": 1.0,
    "wasserstein": 1.0,
    "total-variation": 2.0,
    "fortet-mourier": 4.0,
}

_METRIC_ALIASES = {
    "kol": "kolmogorov",
    "kolmogorov": "kolmogorov",
    "wasserstein": "wasserstein",
    "w": "wasserstein",
    "tv": "total-variation",
    "total-variation": "total-variation",
    "total_variation": "total-variation",
    "totalvariation": "total-variation",
    "fm": "fortet-mourier",
    "fortet-mourier": "fortet-mourier",
    "fortet_mourier": "fortet-mourier",
    "h1": "h1",
    "h2": "h2",
}


@dataclass(frozen=True)
class BoundReport:
    """Decomposed squared bound plus the final metric-scaled distance bound."""

    metric: str
    variance_term: float
    contraction_terms: tuple[tuple[int, float], ...]
    squared_total: float
    metric_constant: float
    bound: float
    unsym_squared_total: float | None = field(default=None)

    CSV_HEADER = ("metric", "variance_term", "squared_total", "bound")  # names of csv_row

    def __post_init__(self):
        parts = self.variance_term + sum(v for _, v in self.contraction_terms)
        scale = max(1.0, abs(self.squared_total))
        if abs(parts - self.squared_total) > 1e-12 * scale:
            raise BoundError("squared_total does not match its decomposition")
        if abs(self.bound - self.metric_constant * math.sqrt(self.squared_total)) > (
            1e-12 * max(1.0, self.bound)
        ):
            raise BoundError("bound does not match metric_constant * sqrt(total)")

    def to_json_obj(self) -> dict:
        obj = {
            "metric": self.metric,
            "variance_term": self.variance_term,
            "contraction_terms": [[r, v] for r, v in self.contraction_terms],
            "squared_total": self.squared_total,
            "metric_constant": self.metric_constant,
            "bound": self.bound,
        }
        if self.unsym_squared_total is not None:
            obj["unsym_squared_total"] = self.unsym_squared_total
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def csv_row(self) -> list:
        return [self.metric, self.variance_term, self.squared_total, self.bound]


def _assemble(metric, constant, variance, terms, unsym=None) -> BoundReport:
    total = variance + sum(v for _, v in terms)
    return BoundReport(
        metric=metric,
        variance_term=variance,
        contraction_terms=tuple(terms),
        squared_total=total,
        metric_constant=constant,
        bound=constant * math.sqrt(max(total, 0.0)),
        unsym_squared_total=unsym,
    )


def _metric_constant(metric: str, nu: float | None = None) -> tuple[str, float]:
    """Canonical metric name and its distance constant: the Gaussian constant
    when nu is None, else K_1(nu) for h1 and K_2(nu) for h2."""
    name = _METRIC_ALIASES.get(metric.strip().lower())
    if name is None:
        raise BoundError(f"unknown metric {metric!r}")
    if nu is None:
        if name not in GAUSS_METRIC_CONSTANTS:
            raise BoundError(f"metric {name!r} is not a Gaussian-approximation metric")
        return name, GAUSS_METRIC_CONSTANTS[name]
    k1, k2 = stein_constants(nu)
    if name == "h2":
        return name, k2
    if name != "h1":
        raise BoundError(f"metric {name!r} is not a Gamma-approximation metric")
    if k1 is None:
        raise BoundError("metric h1 requires an integer nu")
    return name, k1


def _check_nu(*nus: float) -> None:
    """BoundError unless every nu is a finite positive number with 2/nu^2 finite."""
    for nu in nus:
        if not (0.0 < nu and 0.0 < nu * nu < math.inf and 2.0 / (nu * nu) < math.inf):
            raise BoundError(f"nu must be a finite positive number with 2/nu^2 finite, got {nu}")


def _pair_coeff(p: int, q: int, r: int) -> int:
    """p^2 (r-1)!^2 binom(p-1, r-1)^2 binom(q-1, r-1)^2 (p+q-2r)!, exactly.

    The weight of ||f x_{p-r} f|| ||g x_{q-r} g|| in the sum bounds; at
    p = q it is q^2 (2q-2r)! (r-1)!^2 binom(q-1, r-1)^4, the weight of
    ||f x_r f||^2 in the single-chaos bounds.
    """
    return p**2 * _pairing_weight(p, q, r) ** 2 * math.factorial(p + q - 2 * r)


def _variance(kernels: list[SymKernel], target: float) -> float:
    """(target - sum_i q_i! ||f_i||^2)^2."""
    return (target - sum(math.factorial(f.order) * gram_inner(f, f) for f in kernels)) ** 2


def _midpoint_sq(g: SymKernel) -> float:
    """q! ||c_q^{-1} g ~x_{q/2} g - g||^2 for an even order q."""
    q = g.order
    mid_sym = symmetrize(g.space, contract(g, g, q // 2))
    diff = (1.0 / midpoint_constant(q)) * mid_sym - g
    return math.factorial(q) * gram_inner(diff, diff)


def _cross_terms(
    kernels: list[SymKernel], prefactor: float, skip: Callable[[int, int], bool]
) -> dict[int, float]:
    """{r: prefactor sum_{(i,j)} _pair_coeff(q_i, q_j, r)
    ||f_i x_{q_i-r} f_i|| ||f_j x_{q_j-r} f_j||} over 1 <= r <= q_i ^ q_j,
    except the diagonal i = j terms where skip(q_i, r) holds.

    The raw norm ||f_i x_0 f_i|| is taken as ||f_i||^2, so no tensor
    product is formed.
    """
    norms = [
        [gram_inner(f, f)]
        + [
            math.sqrt(max(raw_norm_sq(f.space, contract(f, f, k)), 0.0))
            for k in range(1, f.order)
        ]
        for f in kernels
    ]
    per_r: dict[int, float] = {}
    for i, fi in enumerate(kernels):
        for j, fj in enumerate(kernels):
            p, q = fi.order, fj.order
            for r in range(1, min(p, q) + 1):
                if i == j and skip(p, r):
                    continue
                coeff = prefactor * _pair_coeff(p, q, r)
                per_r[r] = per_r.get(r, 0.0) + coeff * norms[i][p - r] * norms[j][q - r]
    return per_r


def gauss_bound_single(f: SymKernel, metric: str = "kolmogorov") -> BoundReport:
    """Gaussian-approximation bound for F = I_q(f), q >= 2.

    squared_total carries the exact value of E[(1 - q^{-1}||DF||^2)^2]
    (symmetrized contractions); the non-symmetrized upper bound is reported
    alongside as unsym_squared_total.
    """
    metric, constant = _metric_constant(metric)
    q = f.order
    if q < 2:
        raise BoundError(f"Gaussian chaos bound needs order >= 2, got {q}")
    f = _orthonormal(f)
    variance = _variance([f], 1.0)
    terms: list[tuple[int, float]] = []
    unsym = variance
    for r in range(1, q):
        raw = contract(f, f, r)
        coeff = _pair_coeff(q, q, r)
        sym = symmetrize(f.space, raw)
        terms.append((r, coeff * gram_inner(sym, sym)))
        unsym += coeff * raw_norm_sq(f.space, raw)
    return _assemble(metric, constant, variance, terms, unsym=unsym)


def gauss_bound_sum(
    kernels: list[SymKernel], metric: str = "kolmogorov"
) -> BoundReport:
    """Gaussian bound for Z = sum_i I_{q_i}(f_i) with distinct orders >= 2.

    Upper-bounds E[(1 - <DZ, -DL^{-1}Z>)^2] by

        2 (1 - sum q_i! ||f_i||^2)^2
        + 2 s^2 sum_{(i,j,r)} q_i^2 (r-1)!^2 binom(q_i-1, r-1)^2
              binom(q_j-1, r-1)^2 (q_i+q_j-2r)!
              ||f_i x_{q_i-r} f_i|| ||f_j x_{q_j-r} f_j||,

    the triple sum running over 1 <= r <= q_i ^ q_j except the diagonal
    triple (r, q_i, q_j) = (q_i, q_i, q_i).
    """
    metric, constant = _metric_constant(metric)
    if not kernels:
        raise BoundError("at least one kernel is required")
    for k in kernels[1:]:
        _check_same_space(kernels[0], k)
    orders = [k.order for k in kernels]
    if len(set(orders)) != len(orders):
        raise BoundError("orders must be distinct")
    if any(q < 2 for q in orders):
        raise BoundError("all orders must be >= 2")
    kernels = [_orthonormal(k) for k in sorted(kernels, key=lambda k: k.order)]
    variance = 2.0 * _variance(kernels, 1.0)
    per_r = _cross_terms(kernels, 2.0 * len(kernels) ** 2, lambda q, r: r == q)
    return _assemble(metric, constant, variance, sorted(per_r.items()))


def second_chaos_exact_squared(m2: float, m4: float) -> float:
    """Exact E[(1 - ||DF||^2/2)^2] for a second chaos, from its moments:
    (m4 - 3)/6 + (m2 - 1)(m2/2 - 3/2)."""
    return (m4 - 3.0) / 6.0 + (m2 - 1.0) * (0.5 * m2 - 1.5)


def second_chaos_gamma_exact_squared(
    nu: float, m2: float, m3: float, m4: float
) -> float:
    """Exact E[(2 nu + 2F - ||DF||^2/2)^2] for a second chaos:
    (m2 - 2 nu)(4 - 3 nu + m2/2) + (m4 - 12 m3 - 12 nu^2 + 48 nu)/6."""
    return (m2 - 2.0 * nu) * (4.0 - 3.0 * nu + 0.5 * m2) + (
        m4 - 12.0 * m3 - 12.0 * nu**2 + 48.0 * nu
    ) / 6.0


def second_chaos_gauss_bound(m2: float, m4: float) -> float:
    """d_TV bound 2 sqrt(|m4 - 3|/6 + (3 + m2)/2 |m2 - 1|) from moments alone."""
    if m2 <= 0:
        raise BoundError(f"second moment must be positive, got {m2}")
    inner = abs(m4 - 3.0) / 6.0 + 0.5 * (3.0 + m2) * abs(m2 - 1.0)
    return 2.0 * math.sqrt(inner)


def second_chaos_gamma_bound(nu: float, m2: float, m3: float, m4: float) -> float:
    """Moment-only Gamma bound with constant max{1, 1/nu, 2/nu^2}.

    Vanishes exactly at the centered-Gamma moments (2 nu, 8 nu,
    48 nu + 12 nu^2).
    """
    _check_nu(nu)
    constant = max(1.0, 1.0 / nu, 2.0 / nu**2)
    inner = (
        abs(m4 - 12.0 * m3 - 12.0 * nu**2 + 48.0 * nu) / 6.0
        + 0.5 * abs(8.0 - 6.0 * nu + m2) * abs(m2 - 2.0 * nu)
    )
    return constant * math.sqrt(inner)


def stein_constants(nu: float) -> tuple[float | None, float]:
    """(K1, K2) with K1 = max{sqrt(2 pi/nu), 1/nu + 2/nu^2} for integer nu
    (None otherwise) and K2 = max{1, 1/nu + 2/nu^2}."""
    _check_nu(nu)
    k2 = max(1.0, 1.0 / nu + 2.0 / nu**2)
    k1 = None
    if float(nu).is_integer():
        k1 = max(math.sqrt(2.0 * math.pi / nu), 1.0 / nu + 2.0 / nu**2)
    return k1, k2


def midpoint_constant(q: int) -> float:
    """c_q = 1/((q/2)! binom(q-1, q/2-1)^2) for even q."""
    if q < 2 or q % 2 != 0:
        raise BoundError(f"c_q needs an even order >= 2, got {q}")
    half = q // 2
    return 1.0 / (math.factorial(half) * math.comb(q - 1, half - 1) ** 2)


def gamma_bound_single(
    g: SymKernel, nu: float, metric: str = "h2"
) -> BoundReport:
    """Gamma-approximation bound for G = I_q(g), q even.

    squared_total upper-bounds E[(2 nu + 2G - q^{-1}||DG||^2)^2] by

        (2 nu - q! ||g||^2)^2
        + q^2 sum_{r != q/2} (2q-2r)! (r-1)!^2 binom(q-1, r-1)^4 ||g x_r g||^2
        + 4 q! ||c_q^{-1} g ~x_{q/2} g - g||^2

    (an equality at q = 2, where the middle sum is empty).
    """
    _check_nu(nu)
    q = g.order
    if q < 2 or q % 2 != 0:
        raise BoundError(f"Gamma chaos bound needs an even order >= 2, got {q}")
    metric, constant = _metric_constant(metric, nu)
    g = _orthonormal(g)
    variance = _variance([g], 2.0 * nu)
    terms = [
        (r, _pair_coeff(q, q, r) * raw_norm_sq(g.space, contract(g, g, r)))
        for r in range(1, q)
        if 2 * r != q
    ]
    terms.append((q // 2, 4.0 * _midpoint_sq(g)))
    terms.sort()
    return _assemble(metric, constant, variance, terms)


def _toeplitz_gamma_bound(c: np.ndarray, nu: float, metric: str) -> BoundReport:
    """gamma_bound_single of the order-2 kernel g[k, l] = c[|k - l|] on the
    standard space, from the first column c alone (no n x n array).

    At q = 2 the bound needs two numbers: ||g||^2 = sum_{|t|<n} (n - |t|)
    c(|t|)^2, an O(n) entry sum, and the midpoint term 8 ||g^2 - g||^2
    (c_2 = 1), the four-cycle walk of _toeplitz with g taken off every
    diagonal of g^2 before squaring: O(n^2) time in O(n) memory.
    gamma_bound_single on the dense kernel is its test oracle.
    """
    _check_nu(nu)
    metric, constant = _metric_constant(metric, nu)
    variance = (2.0 * nu - 2.0 * _entry_sum(c * c)) ** 2
    return _assemble(metric, constant, variance, [(1, 8.0 * _four_cycle(c, c, c))])


def gamma_bound_sum(
    f1: SymKernel,
    nu1: float,
    f2: SymKernel,
    nu2: float,
    metric: str = "h2",
) -> BoundReport:
    """Gamma bound for Z = I_{q1}(f1) + I_{q2}(f2), even orders, q2 > 2 q1.

    Upper-bounds E[(2 Z + 2 nu - <DZ, -DL^{-1}Z>)^2], nu = nu1 + nu2, by

        3 (2 nu - sum q_i! ||f_i||^2)^2
        + 24 sum_i q_i! ||c_{q_i}^{-1} f_i ~x_{q_i/2} f_i - f_i||^2
        + 12 sum_{(i,j,r)} q_i^2 (r-1)!^2 binom(q_i-1, r-1)^2
              binom(q_j-1, r-1)^2 (q_i+q_j-2r)!
              ||f_i x_{q_i-r} f_i|| ||f_j x_{q_j-r} f_j||,

    the triple sum excluding, on the diagonal i = j, both r = q_i and
    r = q_i/2.
    """
    _check_same_space(f1, f2)
    _check_nu(nu1, nu2)
    q1, q2 = f1.order, f2.order
    if q1 % 2 != 0 or q2 % 2 != 0:
        raise BoundError("both orders must be even")
    if not q2 > 2 * q1:
        raise BoundError(f"orders must satisfy q2 > 2 q1, got {q1}, {q2}")
    nu = nu1 + nu2
    metric, constant = _metric_constant(metric, nu)
    kernels = [_orthonormal(f1), _orthonormal(f2)]
    variance = 3.0 * _variance(kernels, 2.0 * nu)
    per_r = _cross_terms(kernels, 12.0, lambda q, r: r == q or 2 * r == q)
    for f in kernels:
        half = f.order // 2
        per_r[half] = per_r.get(half, 0.0) + 24.0 * _midpoint_sq(f)
    return _assemble(metric, constant, variance, sorted(per_r.items()))


def chi2_double_bound(f: SymKernel) -> float:
    """Bound on d_{H1}(F^2 - 1, N^2 - 1) for F = I_2(f):

        8 sqrt(2) ||f x_1 f|| + sqrt(2 pi E[(2 + 2 H - ||DH||^2 / 4)^2]),

    with H = I_4(f ~x f).  The expectation is evaluated exactly through the
    chaos expansion of ||DH||^2 and orthogonality.
    """
    if f.order != 2:
        raise BoundError(f"chi2 double bound needs an order-2 kernel, got {f.order}")
    f = _orthonormal(f)
    first = 8.0 * math.sqrt(2.0) * math.sqrt(
        max(raw_norm_sq(f.space, contract(f, f, 1)), 0.0)
    )
    hvec = ChaosVector.single(symmetrize(f.space, contract(f, f, 0)))
    x = ChaosVector.build(f.space, 2.0) + 2.0 * hvec - 0.25 * derivative_norm_sq(hvec)
    return first + math.sqrt(2.0 * math.pi * x.second_moment())
