"""Berry-Esseen bound terms for the Breuer-Major CLT over fBm increments.

The normalized Hermite-power sum

    Z_n = (1/(sigma sqrt(n))) sum_{k<n} H_q(n^H (B_{(k+1)/n} - B_{k/n}))

is a single multiple integral I_q(f_n) with f_n proportional to
sum_k delta_k^{x q} over the increment grid, where the grid Gram matrix is
n^{-2H} rho_H(k - l) and rho_H is the fGn autocovariance

    rho_H(k) = ((|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H}) / 2.

We compute the *exact* squared quantity E[(1 - q^{-1}||DZ_n||^2)^2] (the
equality version of the single-chaos Gaussian bound), not the chained proof
estimates: the variance mismatch reduces to a one-dimensional weighted sum
of rho^q, and every contraction norm reduces to stationary four-index sums
of rho powers.  One routine serves every q and builds no n x n matrix.
Each P_x = rho^x (elementwise) is symmetric Toeplitz, so:

- the four-cycle sums tr((P_r P_m)^2), all there is at q = 2, come from
  the diagonals of P_r P_m, seeded by two FFT Toeplitz products (numpy
  rffts of a circulant embedding) and walked by its displacement
  identity: O(n^2) time in O(n) memory;
- the complete-graph sums that appear from q = 3 on are, for each of the
  n lags of one index pair, FFT convolutions with rho^r over the other two
  lags: O(n^2 log n) time in O(n) memory.

Both run under an operation budget that counts what they run.  The
explicit kernel bm_kernel, fed to the generic tensor bounds, is the
deliberate independent oracle for these formulas.  The module uses no
scipy: the Toeplitz matrices and products are numpy code (scipy.linalg's
toeplitz and matmul_toeplitz are their test oracle), and sigma's tail takes
its Hurwitz zeta values from an Euler-Maclaurin sum (scipy.special.zeta is
its test oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import BoundReport, _assemble, _pair_coeff
from .tensors import GramSpace, SymKernel

__all__ = [
    "BreuerMajorError",
    "DivergenceError",
    "ResourceGuardError",
    "BmInstance",
    "rho",
    "rho_values",
    "sigma",
    "sigma_quadratic",
    "bm_gram",
    "bm_kernel",
    "bm_chaos_scale",
    "bm_bound_exact",
    "bm_rate",
    "bm_table",
]

# Direct-summation horizon for sigma; beyond it the tail is evaluated by a
# three-term asymptotic expansion of rho_H through Hurwitz zeta functions,
# with error far below the 1e-10 target.
SIGMA_DIRECT_TERMS = 100_000
DEFAULT_OP_BUDGET = 2_000_000_000
# Entries of the product diagonals walked per block in _four_cycle.
WALK_BLOCK = 1 << 19
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
        if self.n < 1:
            raise BreuerMajorError(f"grid size must be >= 1, got {self.n}")
        _check_hurst(self.H, self.q)


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
    s = q(2-2H) > 1.  The neglected term is O(horizon^{1-s-6}).
    """
    a = 2.0 * H
    amp = 0.5 * a * (a - 1.0)
    if amp == 0.0:
        return 0.0
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
    _check_hurst(H, q)
    if q == 1:
        raise BreuerMajorError(f"sum_t rho_H(t) = 0 for H = {H} < 1/2, so sigma(H, 1) = 0")
    return _sigma(H, q)


@lru_cache(maxsize=16)
def _sigma(H: float, q: int) -> float:
    """sigma for a validated (H, q), kept for reuse: every row of a table and
    the sampler of a simulate run ask for the same value.  A run uses a few
    (H, q) pairs; a sweep over a larger grid recomputes as it goes."""
    direct = float(np.sum(rho_values(H, SIGMA_DIRECT_TERMS)[1:] ** q))
    total = 1.0 + 2.0 * (direct + _rho_tail(H, q, SIGMA_DIRECT_TERMS))
    return math.sqrt(total / math.factorial(q))


def sigma_quadratic(H: float) -> float:
    """Normalization of the (n^{2H} increment^2 - 1) variant at q = 2.

    Under (x^2 - 1) = 2 H_2(x) the variant's sigma is exactly twice the
    Hermite-normalized sigma(H, 2).
    """
    return 2.0 * sigma(H, 2)


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


def _bm_second_moment(inst: BmInstance, sig: float) -> float:
    """E[Z_n^2] = (1/(q! sigma^2 n)) sum_{|t|<n} (n - |t|) rho_H(t)^q."""
    vals = rho_values(inst.H, inst.n - 1) ** inst.q
    weights = inst.n - np.arange(inst.n, dtype=float)
    total = vals[0] * inst.n + 2.0 * float(np.dot(vals[1:], weights[1:]))
    return total / (math.factorial(inst.q) * sig**2 * inst.n)


def _check_op_budget(inst: BmInstance, op_budget: int) -> int:
    """Refuse instances whose contraction sums exceed op_budget.

    The estimate counts what _contraction_norms runs: the n^2 entries of the
    product walked for each of the q // 2 distinct four-cycle sums, and for
    each of the (q-1)(q-2)/2 complete-graph sums, n lags of six rffts of
    length L = 2^bits >= 3n - 2, about 15 L log2(L) ops per lag.  Both are
    O(n^2) up to the log, in O(n) memory.  Returns the estimate.
    """
    q, n = inst.q, inst.n
    bits = (3 * n - 3).bit_length()
    est_ops = q // 2 * n**2 + (q - 1) * (q - 2) // 2 * n * 15 * bits * 2**bits
    if est_ops > op_budget:
        raise ResourceGuardError(
            f"contraction sums need ~{est_ops:.2g} ops > budget {op_budget:.2g}"
        )
    return est_ops


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix T[i, j] = c[|i - j|] (a copy of c's entries)."""
    n = c.size
    return sliding_window_view(np.concatenate([c[::-1], c[1:]]), n)[::-1].copy()


def _toeplitz_product(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric Toeplitz T with first column c, by FFT.

    T is embedded in the circulant of first column [c, c[n-1], ..., c[1]]
    (length 2n - 1), whose product with x zero-padded to that length holds
    T x in its first n entries: O(n log n) time.
    """
    n = c.size
    size = 2 * n - 1
    embedded = np.fft.rfft(np.concatenate([c, c[:0:-1]]))
    return np.fft.irfft(embedded * np.fft.rfft(x, size), size)[:n]


def _product_diagonals(x: np.ndarray, y: np.ndarray, row0: np.ndarray,
                       d0: int, d1: int) -> np.ndarray:
    """Diagonals d0 <= d < d1 of X Y, X and Y symmetric Toeplitz.

    x and y are the first columns and row0 is row 0 of X Y.  Row d - d0 of
    the result holds (X Y)[i, i + d] for i < n - d0, walked from row0[d] by
    the displacement identity

        (X Y)[i+1, j+1] = (X Y)[i, j] + x[i+1] y[j+1] - x[n-1-i] y[n-1-j];

    entries with i >= n - d lie past the end of their diagonal.
    """
    n = x.size
    width = n - d0
    walk = np.empty((d1 - d0, width))
    walk[:, 0] = row0[d0:d1]
    if width > 1:
        pad = np.zeros(n)
        ahead = sliding_window_view(np.concatenate([y, pad]), width - 1)
        behind = sliding_window_view(np.concatenate([y[::-1], pad]), width - 1)
        np.multiply(x[1:width], ahead[d0 + 1 : d1 + 1], out=walk[:, 1:])
        walk[:, 1:] -= x[::-1][: width - 1] * behind[d0:d1]
    return np.cumsum(walk, axis=1, out=walk)


def _four_cycle(a: np.ndarray, b: np.ndarray) -> float:
    """tr((A B)^2) for symmetric Toeplitz A, B with first columns a, b.

    tr((A B)^2) = sum_d (diagonal d of A B) . (diagonal -d of A B), and
    diagonal -d of A B is diagonal d of B A.  Row 0 of A B is B a and row 0
    of B A is A b (two FFT Toeplitz products; one walk when A is B, since
    then A B is symmetric).  The diagonals are walked in blocks of about
    WALK_BLOCK entries, so memory stays O(n).
    """
    n = a.size
    row_ab = _toeplitz_product(b, a)
    row_ba = row_ab if a is b else _toeplitz_product(a, b)
    step = max(1, WALK_BLOCK // n)
    total = 0.0
    for d0 in range(0, n, step):
        d1 = min(n, d0 + step)
        upper = _product_diagonals(a, b, row_ab, d0, d1)
        lower = upper if a is b else _product_diagonals(b, a, row_ba, d0, d1)
        # zero the entries past the end of each diagonal
        width, count = n - d0, d1 - d0
        tail = np.arange(count - 1) < (count - 1 - np.arange(count))[:, None]
        upper[:, width - count + 1 :] *= tail
        dots = np.einsum("ij,ij->i", upper, lower)
        total += 2.0 * float(dots.sum()) - (float(dots[0]) if d0 == 0 else 0.0)
    return total


def _complete_graph(n: int, pr: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> float:
    """sum_{klij} P_r[k,l] P_r[i,j] P_a[k,i] P_a[l,j] P_b[k,j] P_b[l,i] by FFT.

    With (u, v, w) = (l - k, i - k, j - k) and p_x(t) = px[|t|] (0 for
    |t| >= n) the sum is sum_{u,v,w} W p_r(u) A_u(v) p_r(w-v) B_u(w), where
    A_u(v) = p_a(v) p_b(v-u), B_u(w) = p_b(w) p_a(w-u) and W = n - span{0,u,v,w}
    counts the grid positions that fit the lags; each pair of {0,u,v,w} is
    the lag of one factor, so W needs no clip at 0.  The summand is even: u
    runs over [0, n), twice for u > 0.  For u >= 0, W = (n - max(u,w)) +
    min(0,v) on v <= w and (n - max(u,v)) + min(0,w) on v > w, so each half
    is two causal convolutions with p_r (lags d >= 0, resp. d > 0) dotted
    with B or A.  The dots are taken over rffts of a length >= 3n - 2, which
    no convolution wraps; the rffts of p_r serve every u.  O(n^2 log n) time
    in O(n) memory.
    """
    size = 1 << (3 * n - 3).bit_length()
    ea = np.concatenate([pa[:0:-1], pa])  # p_a(t), t in (-n, n)
    eb = np.concatenate([pb[:0:-1], pb])
    lags = np.arange(1 - n, n, dtype=float)
    # sum_t x[t] y[t] = sum_f weight_f Re(conj(X_f) Y_f) over the rfft bins
    weight = np.full(size // 2 + 1, 2.0 / size)
    weight[[0, -1]] = 1.0 / size
    ahead = weight * np.fft.rfft(pr, size)  # lags d >= 0
    after = ahead - weight * pr[0]  # lags d > 0
    total = 0.0
    for u in range(n):
        k = 2 * n - 1 - u  # v, w run over (u - n, n)
        a, b = ea[u:] * eb[:k], eb[u:] * ea[:k]
        near, low = n - np.maximum(lags[u:], u), np.minimum(lags[u:], 0.0)
        fa, fb, fna, fnb, fla, flb = np.fft.rfft(
            [a, b, near * a, near * b, low * a, low * b], size
        )
        term = (np.vdot(fnb, fa * ahead) + np.vdot(fb, fla * ahead)
                + np.vdot(fna, fb * after) + np.vdot(fa, flb * after)).real
        total += pr[u] * (term if u == 0 else 2.0 * term)
    return total


def _contraction_norms(inst: BmInstance, sig: float, op_budget: int) -> list[float]:
    """||f ~x_r f||^2 for r = 1..q-1 by stationary four-index sums.

    With P_x[k, l] = rho_H(k - l)^x,

        ||f ~x_r f||^2 = (q!^{-4} sigma^{-4} n^{-2}) binom(2m, m)^{-1}
            sum_{a=0}^{m} binom(m, a)^2
            sum_{klij} P_r[k,l] P_r[i,j] P_a[k,i] P_{m-a}[k,j]
                       P_{m-a}[l,i] P_a[l,j],

    where m = q - r.  The a = 0 and a = m sums are both the four-cycle
    tr((P_r P_m)^2), the same for r and q - r, walked along the diagonals
    of P_r P_m (_four_cycle); each of the m - 1 sums with 0 < a < m is a
    complete graph on the four indices, summed over lags (_complete_graph).
    """
    _check_op_budget(inst, op_budget)
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
        acc /= math.comb(2 * m, m)
        out.append(acc / (math.factorial(q) ** 4 * sig**4 * n**2))
    return out


def bm_bound_exact(
    inst: BmInstance, *, op_budget: int = DEFAULT_OP_BUDGET
) -> BoundReport:
    """Exact E[(1 - q^{-1}||DZ_n||^2)^2] and the Kolmogorov-distance bound."""
    sig = sigma(inst.H, inst.q)
    variance = (1.0 - _bm_second_moment(inst, sig)) ** 2
    norms = _contraction_norms(inst, sig, op_budget)
    terms = [
        (r, _pair_coeff(inst.q, inst.q, r) * norms[r - 1])
        for r in range(1, inst.q)
    ]
    return _assemble("kolmogorov", 1.0, variance, terms)


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
        rows.append(
            {
                "H": H,
                "q": q,
                "n": n,
                "variance_term": report.variance_term,
                "squared_total": report.squared_total,
                "kol_bound": report.bound,
                "rate_exponent": exponent,
                "regime": regime,
                "predicted": float(n) ** (-exponent),
                "op_estimate": estimate,
            }
        )
    return rows
