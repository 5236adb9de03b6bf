"""Symmetric Toeplitz matrices, each given by its first column c.

T[i, j] = c[|i - j|]; the two-sided sequence c(|t|), t in (-n, n), is
built in one place.  Products T x embed T in the circulant of first column
[c, c[n-1], ..., c[1]] (length 2n - 1); the complete-graph sum zero-pads
its lag sequences to a power of two >= 3n - 2, which no convolution of
them wraps.  Both are numpy rffts.  On them rest the entry sum (O(n)), the
four-cycle trace tr((A B)^2), walked along the diagonals of A B (O(n^2)
time in O(n) memory), and the complete-graph sum (O(n^2 log n) time in
O(n) memory), with the op counts of the two traces for a caller's budget.
scipy.linalg's toeplitz and matmul_toeplitz are the test oracles of the
dense builder and the product.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Entries of the product diagonals walked per block in _four_cycle.
WALK_BLOCK = 1 << 19


def _two_sided(c: np.ndarray) -> np.ndarray:
    """c(|t|) for t = 1 - n, ..., n - 1."""
    return np.concatenate([c[:0:-1], c])


def _fft_length(n: int) -> int:
    """The rfft length of _complete_graph: the power of two >= 3n - 2."""
    return 1 << (3 * n - 3).bit_length()


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix T[i, j] = c[|i - j|] (a copy of c's entries)."""
    return sliding_window_view(_two_sided(c), c.size)[::-1].copy()


def _toeplitz_product(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric Toeplitz T with first column c, by FFT.

    T is embedded in the circulant of first column [c, c[n-1], ..., c[1]]
    (length 2n - 1), whose product with x zero-padded to that length holds
    T x in its first n entries: O(n log n) time.
    """
    n = c.size
    size = 2 * n - 1
    embedded = np.fft.rfft(np.roll(_two_sided(c), 1 - n))
    return np.fft.irfft(embedded * np.fft.rfft(x, size), size)[:n]


def _entry_sum(c: np.ndarray) -> float:
    """sum_{i,j} T[i, j] = sum_{|t|<n} (n - |t|) c(|t|)."""
    n = c.size
    weights = n - np.arange(n, dtype=float)
    return c[0] * n + 2.0 * float(np.dot(c[1:], weights[1:]))


def _trace_ops(n: int) -> tuple[int, int]:
    """Ops of one _four_cycle (the n^2 entries it walks) and of one
    _complete_graph (n lags of six rffts of length L, ~15 L log2(L) each)."""
    size = _fft_length(n)
    return n**2, n * 15 * (size.bit_length() - 1) * size


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
    WALK_BLOCK entries, so memory stays O(n).  It equals _complete_graph(n,
    a, ones, b) to rounding, and stays as its own O(n^2) walk because that
    FFT sum is O(n^2 log n): 79 ms against 3.4 s at n = 4096, H = 0.7 (one
    call each on a 2-core Xeon VM).
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
    with B or A.  The dots are taken over rffts of length _fft_length(n);
    the rffts of p_r serve every u.
    """
    size = _fft_length(n)
    ea, eb = _two_sided(pa), _two_sided(pb)
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
