"""Berry-Esseen bound terms for the Breuer-Major CLT over fBm increments.

The normalized Hermite-power sum

    Z_n = (1/(sigma sqrt(n))) sum_{k<n} H_q(n^H (B_{(k+1)/n} - B_{k/n}))

is a single multiple integral I_q(f_n) with f_n proportional to
sum_k delta_k^{x q} over the increment grid, where the grid Gram matrix is
n^{-2H} rho_H(k - l) and rho_H is the fGn autocovariance

    rho_H(k) = ((|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H}) / 2.

We compute the *exact* squared quantity E[(1 - q^{-1}||DZ_n||^2)^2] (the
equality version of the single-chaos Gaussian bound), not the chained proof
estimates.  With the symmetric Toeplitz P_x = rho^x (elementwise), it is
computed in its own scale S n, S = sum_t rho_H(t)^q = q! sigma^2: E[Z_n^2]
is the entry sum of P_q over S n, and each contraction term a sum of
four-cycle traces and complete-graph sums of the P_x over (S n)^2.  No q!
enters; the one limit, q <= 170, is sigma's q!.  steinchaos._toeplitz
computes the sums for every q, under an operation budget, with no n x n
matrix.  The explicit kernel bm_kernel, fed to the generic tensor bounds,
is the deliberate independent oracle for these formulas.  No scipy here:
sigma's tail takes its Hurwitz zeta values from an Euler-Maclaurin sum
(scipy.special.zeta is its test oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

import numpy as np

from ._toeplitz import (_complete_graph, _entry_sum, _four_cycle, _toeplitz,
                        _trace_ops)
from .bounds import BoundReport, _assemble, _metric_constant
from .chaos import MAX_FACTORIAL_ORDER
from .tensors import GramSpace, SymKernel

__all__ = [
    "BreuerMajorError",
    "DivergenceError",
    "ResourceGuardError",
    "BmInstance",
    "rho",
    "rho_values",
    "sigma",
    "bm_gram",
    "bm_kernel",
    "bm_chaos_scale",
    "bm_bound_exact",
    "bm_rate",
    "bm_table",
]

# Direct-summation horizon for sigma; beyond it the tail is evaluated by a
# three-term asymptotic expansion of rho_H through Hurwitz zeta functions.
# The horizon bounds the tail's error, far below the 1e-10 target; the rest
# comes from rho_H itself, whose three powers cancel to about eps t^2 of its
# value at lag t: sigma is up to ~6e-11 off at H >= 0.7 (~2e-14 at H <= 0.65).
SIGMA_DIRECT_TERMS = 100_000
DEFAULT_OP_BUDGET = 2_000_000_000
# B_{2k} / (2k)! for k = 1..5, the Euler-Maclaurin coefficients of _hurwitz_zeta
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0, 1.0 / 47900160.0)


class BreuerMajorError(Exception):
    """Base class for Breuer-Major computation failures."""


class DivergenceError(BreuerMajorError):
    """Raised when sum rho_H^q diverges (H >= (2q-1)/(2q))."""


class ResourceGuardError(BreuerMajorError):
    """Raised when the contraction sums exceed the op budget."""


@dataclass(frozen=True)
class BmInstance:
    """Hermite order q, Hurst index H and grid size n of one experiment."""

    H: float
    q: int
    n: int

    def __post_init__(self):
        if self.q < 2:
            raise BreuerMajorError(f"Hermite order must be >= 2, got {self.q}")
        _check_order(self.q)
        if self.n < 1:
            raise BreuerMajorError(f"grid size must be >= 1, got {self.n}")
        _check_hurst(self.H, self.q)


def _check_order(q: int) -> None:
    """q! must fit in a float: sigma, the chaos scale and hermite divide by it."""
    if q > MAX_FACTORIAL_ORDER:
        raise BreuerMajorError(f"Hermite order must be <= {MAX_FACTORIAL_ORDER}: q! must fit in a float")


def _check_hurst(H: float, q: int | None = None) -> None:
    """H in (0, 1) and, given q, below the limit (2q-1)/(2q) where sigma diverges."""
    if not 0.0 < H < 1.0:
        raise BreuerMajorError(f"Hurst index must lie in (0,1), got {H}")
    if q is not None and H >= (2 * q - 1) / (2 * q):
        raise DivergenceError(
            f"H = {H} >= (2q-1)/(2q) = {(2 * q - 1) / (2 * q):g}: sum rho_H^q diverges"
        )


def _rho_at(H: float, t: np.ndarray) -> np.ndarray:
    """rho_H at nonnegative lags t (float array)."""
    _check_hurst(H)
    return 0.5 * ((t + 1) ** (2 * H) + np.abs(t - 1) ** (2 * H) - 2 * t ** (2 * H))


def rho(H: float, k: int) -> float:
    """fGn autocovariance rho_H(k); symmetric in k, rho_H(0) = 1."""
    return float(_rho_at(H, np.array([abs(int(k))], dtype=float))[0])


def rho_values(H: float, kmax: int) -> np.ndarray:
    """Vector [rho_H(0), ..., rho_H(kmax)]."""
    return _rho_at(H, np.arange(kmax + 1, dtype=float))


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) = sum_{k >= 0} (a + k)^{-s} for s > 1 and large a.

    Euler-Maclaurin from k = 0:

        a^{1-s}/(s-1) + a^{-s}/2
            + sum_{k=1..5} B_{2k}/(2k)! s(s+1)...(s+2k-2) a^{-s-2k+1},

    whose remainder is O(a^{-s-11}), far below a rounding error of the sum
    at the one argument sigma uses, a = SIGMA_DIRECT_TERMS + 1.
    """
    power = a**-s
    inv_sq = 1.0 / (a * a)
    rising = s  # s(s+1)...(s+2k-2)
    scale = power / a  # a^{-s-2k+1}
    correction = 0.0
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        correction += coeff * rising * scale
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        scale *= inv_sq
    return a * power / (s - 1.0) + 0.5 * power + correction


def _rho_tail(H: float, q: int, horizon: int) -> float:
    """sum_{t > horizon} rho_H(t)^q by asymptotic expansion.

    rho_H(t) = A t^{2H-2} (1 + c1 t^{-2} + c2 t^{-4} + O(t^{-6})) with
    A = H(2H-1), c1 = (2H-2)(2H-3)/12, c2 = (2H-2)(2H-3)(2H-4)(2H-5)/360,
    so the tail is a combination of Hurwitz zeta values at s, s+2, s+4 with
    s = q(2-2H) > 1; at H = 1/2, A = 0 makes the tail 0.0.  The neglected
    term is O(horizon^{1-s-6}).
    """
    a = 2.0 * H
    amp = 0.5 * a * (a - 1.0)
    s = q * (2.0 - a)
    c1 = (a - 2.0) * (a - 3.0) / 12.0
    c2 = (a - 2.0) * (a - 3.0) * (a - 4.0) * (a - 5.0) / 360.0
    start = horizon + 1.0
    lead = _hurwitz_zeta(s, start)
    corr1 = q * c1 * _hurwitz_zeta(s + 2, start)
    corr2 = (q * c2 + 0.5 * q * (q - 1) * c1**2) * _hurwitz_zeta(s + 4, start)
    return amp**q * (lead + corr1 + corr2)


def sigma(H: float, q: int) -> float:
    """sigma = sqrt((1/q!) sum_{t in Z} rho_H(t)^q), finite for H < (2q-1)/(2q).

    At q = 1 the sum telescopes to 0 for every H < 1/2 and diverges from
    H = 1/2 on, so there is no sigma to normalize by.
    """
    if q < 1:
        raise BreuerMajorError(f"Hermite order must be >= 1, got {q}")
    _check_order(q)
    _check_hurst(H, q)
    if q == 1:
        raise BreuerMajorError(f"sum_t rho_H(t) = 0 for H = {H} < 1/2, so sigma(H, 1) = 0")
    return math.sqrt(_power_sum(H, q) / math.factorial(q))


@lru_cache(maxsize=16)
def _power_sum(H: float, q: int) -> float:
    """S = sum_{t in Z} rho_H(t)^q = q! sigma^2 for a validated (H, q), kept
    for reuse: every row of a table and the sampler of a simulate run ask
    for the same value.  A run uses a few (H, q) pairs; a sweep over a
    larger grid recomputes as it goes."""
    direct = float(np.sum(rho_values(H, SIGMA_DIRECT_TERMS)[1:] ** q))
    return 1.0 + 2.0 * (direct + _rho_tail(H, q, SIGMA_DIRECT_TERMS))


def bm_chaos_scale(inst: BmInstance) -> float:
    """Coefficient n^{qH - 1/2} / (q! sigma) of sum_k delta_k^{x q} in f_n."""
    return inst.n ** (inst.q * inst.H - 0.5) / (
        math.factorial(inst.q) * sigma(inst.H, inst.q)
    )


def bm_gram(inst: BmInstance) -> GramSpace:
    """Gram space of the raw increments: G[k, l] = n^{-2H} rho_H(k - l)."""
    vals = rho_values(inst.H, inst.n - 1) * inst.n ** (-2.0 * inst.H)
    return GramSpace(_toeplitz(vals))


def bm_kernel(inst: BmInstance) -> SymKernel:
    """Explicit kernel f_n = scale * sum_k delta_k^{x q} over bm_gram."""
    space = bm_gram(inst)
    scale = bm_chaos_scale(inst)
    coeffs = {(k,) * inst.q: scale for k in range(inst.n)}
    return SymKernel(space, inst.q, coeffs)


def _check_op_budget(inst: BmInstance, op_budget: int) -> int:
    """Refuse instances whose contraction sums exceed op_budget.

    The estimate counts what _contraction_terms runs: the q // 2 distinct
    four-cycle sums and the (q-1)(q-2)/2 complete-graph sums, each at the
    op count _trace_ops gives.  Returns the estimate.  The message formats
    both ints as Decimals: a float overflows past 1e308, and str() refuses
    ints of more than 4300 digits.
    """
    q, (cycle_ops, graph_ops) = inst.q, _trace_ops(inst.n)
    est_ops = q // 2 * cycle_ops + (q - 1) * (q - 2) // 2 * graph_ops
    if est_ops > op_budget:
        raise ResourceGuardError(f"contraction sums need ~{Decimal(est_ops):.2g} ops "
                                 f"> budget {Decimal(op_budget):.2g}")
    return est_ops


def _contraction_terms(inst: BmInstance, S: float) -> list[float]:
    """binom(q-1, r-1)^2 T_r / (S n)^2 for r = 1..q-1: the contraction terms
    of the squared total, with S = _power_sum(H, q) and m = q - r in

        T_r = sum_{a=0}^{m} binom(m, a)^2
              sum_{klij} P_r[k,l] P_r[i,j] P_a[k,i] P_{m-a}[k,j] P_{m-a}[l,i] P_a[l,j],

    P_x[k, l] = rho_H(k - l)^x.  It is _pair_coeff(q, q, r) ||f ~x_r f||^2,
    with ||f ~x_r f||^2 = T_r / (binom(2m, m) q!^2 S^2 n^2), since
    q^2 (r-1)!^2 m!^2 / q!^2 = 1 / binom(q-1, r-1)^2.  The a = 0 and a = m
    sums are both the four-cycle tr((P_r P_m)^2), the same for r and q - r
    (_four_cycle); each of the m - 1 sums with 0 < a < m is a complete graph
    on the four indices (_complete_graph).  The caller checks the op budget.
    """
    q, n = inst.q, inst.n
    base = rho_values(inst.H, n - 1)
    powers = {x: base**x for x in range(1, q)}
    cycles = {r: _four_cycle(powers[r], powers[q - r]) for r in range(1, q // 2 + 1)}
    out = []
    for r in range(1, q):
        m = q - r
        acc = 2.0 * cycles[min(r, m)]
        for a in range(1, m):
            four_sum = _complete_graph(n, powers[r], powers[a], powers[m - a])
            acc += math.comb(m, a) ** 2 * four_sum
        out.append(math.comb(q - 1, r - 1) ** 2 * acc / (S * n) ** 2)
    return out


def bm_bound_exact(inst: BmInstance, *, op_budget: int = DEFAULT_OP_BUDGET) -> BoundReport:
    """Exact E[(1 - q^{-1}||DZ_n||^2)^2] and the Kolmogorov-distance bound."""
    _check_op_budget(inst, op_budget)
    S = _power_sum(inst.H, inst.q)
    # E[Z_n^2] = (1/(S n)) sum_{|t|<n} (n - |t|) rho_H(t)^q
    second_moment = _entry_sum(rho_values(inst.H, inst.n - 1) ** inst.q) / (S * inst.n)
    terms = list(enumerate(_contraction_terms(inst, S), start=1))
    return _assemble(*_metric_constant("kolmogorov"), (1.0 - second_moment) ** 2, terms)


def bm_rate(H: float, q: int) -> tuple[float, str]:
    """Decay exponent e of the Kolmogorov bound (bound <~ n^{-e}) and regime.

    Regimes: n^{-1/2} for H <= 1/2, n^{H-1} up to (2q-3)/(2q-2), and
    n^{qH-q+1/2} up to the divergence boundary (2q-1)/(2q).
    """
    if q < 2:
        raise BreuerMajorError(f"Hermite order must be >= 2, got {q}")
    _check_hurst(H, q)
    if H <= 0.5:
        return 0.5, "n^(-1/2)"
    if H <= (2 * q - 3) / (2 * q - 2):
        return 1.0 - H, "n^(H-1)"
    return q - q * H - 0.5, "n^(qH-q+1/2)"


def bm_table(H: float, q: int, ns: list[int]) -> list[dict]:
    """Deterministic rows (one per n) for rate-regression experiments.

    Every instance and its op budget are checked before any row is computed;
    each row carries the guard's estimate as op_estimate.
    """
    exponent, regime = bm_rate(H, q)
    instances = [BmInstance(H, q, n) for n in ns]
    estimates = [_check_op_budget(inst, DEFAULT_OP_BUDGET) for inst in instances]
    rows = []
    for n, inst, estimate in zip(ns, instances, estimates):
        report = bm_bound_exact(inst)
        rows.append({
            "H": H, "q": q, "n": n,
            "variance_term": report.variance_term, "squared_total": report.squared_total,
            "kol_bound": report.bound, "rate_exponent": exponent, "regime": regime,
            "predicted": float(n) ** (-exponent), "op_estimate": estimate,
        })
    return rows
