"""Symmetric Toeplitz matrices, each given by its first column c.

T[i, j] = c[|i - j|]; the two-sided sequence c(|t|), t in (-n, n), and the
first column of the circulant that embeds T are built here and nowhere
else.  Products T x embed T in the circulant of size 2n (c padded by one
zero); the complete-graph sum zero-pads its lag sequences to a power of two
>= 3n - 2, which no convolution of them wraps.  Both are numpy rffts.  On
them rest the entry sum (O(n)), the four-cycle trace tr((A B - C)^2),
walked once along the diagonals d >= 0 of A B - C (O(n^2) time in O(n)
memory; Breuer-Major takes C = 0, and the chi2 Gamma bound ||M^2 - M||^2
takes A = B = C = M), and the complete-graph sum (O(n^2 log n) time in O(n)
memory), with the op counts of the two traces for a caller's budget.
scipy.linalg's toeplitz and matmul_toeplitz are the test oracles of the
dense builder and the product; dense matrix products and an
extended-precision walk are those of the four-cycle trace.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

# Entries of the product diagonals walked per block in _four_cycle: at most
# WALK_BLOCK, and at least WALK_MIN where n allows (see _walk_rows).
WALK_BLOCK = 1 << 19
WALK_MIN = 1 << 14


def _two_sided(c: np.ndarray) -> np.ndarray:
    """c(|t|) for t = 1 - n, ..., n - 1."""
    return np.concatenate([c[:0:-1], c])


def _fft_length(n: int) -> int:
    """The rfft length of _complete_graph: the power of two >= 3n - 2."""
    return 1 << (3 * n - 3).bit_length()


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix T[i, j] = c[|i - j|] (a copy of c's entries)."""
    return sliding_window_view(_two_sided(c), c.size)[::-1].copy()


def _circulant_column(c: np.ndarray) -> np.ndarray:
    """[c, c[m-1], ..., c[1]] for c of m + 1 entries: the first column of the
    circulant of size 2m whose leading (m + 1) x (m + 1) block is the
    symmetric Toeplitz matrix of first column c."""
    return np.concatenate([c, c[-2:0:-1]])


def _toeplitz_product(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric Toeplitz T with first column c, by FFT.

    T is the leading block of the circulant of c padded by one zero (size
    2n), whose product with x zero-padded to that size holds T x in its
    first n entries: O(n log n) time.
    """
    n = c.size
    size = 2 * n
    embedded = np.fft.rfft(_circulant_column(np.append(c, 0.0)))
    return np.fft.irfft(embedded * np.fft.rfft(x, size), size)[:n]


def _entry_sum(c: np.ndarray) -> float:
    """sum_{i,j} T[i, j] = sum_{|t|<n} (n - |t|) c(|t|)."""
    n = c.size
    weights = n - np.arange(n, dtype=float)
    return c[0] * n + 2.0 * float(np.dot(c[1:], weights[1:]))


def _trace_ops(n: int) -> tuple[int, int]:
    """Ops of one _four_cycle (the n^2 entries it walks) and of one
    _complete_graph: n lags, each a fixed 100,000 ops of numpy call overhead
    plus six rffts of length L, ~15 L log2(L).  Measured on a 2-core Xeon VM,
    a lag costs a flat ~25-31 us up to n = 64 and the FFT term ~0.28-0.31 ns
    an op from n = 512 on, so 100,000 ops is that flat cost in FFT ops."""
    size = _fft_length(n)
    return n**2, n * (100_000 + 15 * (size.bit_length() - 1) * size)


def _walk_rows(n: int) -> int:
    """Diagonals per block of _product_diagonals: at most WALK_BLOCK entries
    (O(n) memory), and at most an eighth of the diagonals unless that leaves
    blocks of fewer than WALK_MIN entries.  Each block walks its widest
    diagonal's length, so narrow blocks keep the walk close to the triangle
    d >= 0 (n^2 / 2 entries), where one n x n block walks n^2."""
    return max(1, min(n, WALK_BLOCK // n, max(-(-n // 8), WALK_MIN // n)))


def _product_diagonals(x: np.ndarray, y: np.ndarray, row0: np.ndarray, step: int):
    """Diagonals d >= 0 of X Y (X, Y symmetric Toeplitz), step at a time.

    x and y are the first columns and row0 is row 0 of X Y.  Yields one
    block per d0 = 0, step, 2 step, ...: its row d - d0 holds (X Y)[i, i + d]
    for i < n - d0, walked from row0[d] by the displacement identity

        (X Y)[i+1, j+1] = (X Y)[i, j] + x[i+1] y[j+1] - x[n-1-i] y[n-1-j],

    with the entries past the end of each diagonal (i >= n - d) zeroed.  The
    identity holds as well for X Y - C with C symmetric Toeplitz, whose
    displacement is zero, so row0 = row 0 of X Y - C walks X Y - C.  Every
    block is a view of one buffer that the next block overwrites.
    """
    n = x.size
    # row s of ahead holds y[s + 1 :] and row s of behind y[n - 1 - s :: -1],
    # zero-padded to n - 1 entries
    padded = np.zeros((2, 2 * n))
    padded[0, : n - 1], padded[1, :n] = y[1:], y[::-1]
    ahead, behind = sliding_window_view(padded, n - 1, axis=1)
    # the mask of the last block, of count <= step rows, is its last count rows
    ends = np.arange(step - 1) < (step - 1 - np.arange(step))[:, None]
    walk, back = np.empty(step * n), np.empty(step * n)
    for d0 in range(0, n, step):
        width, count = n - d0, min(step, n - d0)
        block = walk[: count * width].reshape(count, width)
        block[:, 0] = row0[d0 : d0 + count]
        steps = block[:, 1:]
        np.multiply(x[1:width], ahead[d0 : d0 + count, : width - 1], out=steps)
        behind_part = back[: count * (width - 1)].reshape(count, width - 1)
        np.multiply(x[::-1][: width - 1], behind[d0 : d0 + count, : width - 1], out=behind_part)
        steps -= behind_part
        np.cumsum(block, axis=1, out=block)
        block[:, width - count + 1 :] *= ends[step - count :, : count - 1]
        yield block


def _four_cycle(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> float:
    """tr((A B - C)^2) for symmetric Toeplitz A, B, C with first columns a, b,
    c (C = 0 when c is None): tr((A B)^2), or ||A^2 - C||_F^2 when A = B.

    tr((A B - C)^2) = sum_d (diagonal d of A B - C) . (diagonal -d of A B - C).
    With J the exchange matrix, J T J = T for every symmetric Toeplitz T, so
    J (A B - C) J = A B - C: diagonal -d is diagonal d reversed, and one walk
    of the diagonals d >= 0 carries the whole trace.  Row 0 of A B is B a
    (one FFT Toeplitz product); c is taken off it before the walk, so C
    leaves every entry before the products, and no difference of large
    traces cancels as A B approaches C.  The diagonals are walked in blocks
    of _walk_rows(n) (_product_diagonals), so memory stays O(n) and time
    O(n^2).  With c None it equals _complete_graph(n, a, ones, b) to
    rounding, and stays as its own O(n^2) walk because that FFT sum is
    O(n^2 log n): 79 ms against 3.4 s at n = 4096, H = 0.7 (one call each
    on a 2-core Xeon VM).
    """
    n = a.size
    row = _toeplitz_product(b, a)
    if c is not None:
        row = row - c
    step = _walk_rows(n)
    total = 0.0
    for d0, block in zip(range(0, n, step), _product_diagonals(a, b, row, step)):
        width, item = block.shape[1], block.itemsize
        # row k of the block is diagonal d0 + k, zeroed past its width - k
        # entries; row k of reverse reads it backwards, then earlier rows,
        # whose entries meet those zeros (finite, as every caller's are)
        reverse = as_strided(block[0, width - 1 :], block.shape, ((width - 1) * item, -item))
        dots = np.einsum("ij,ij->i", block, reverse)
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
