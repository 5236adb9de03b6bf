"""Monte Carlo: fGn sampling, Hermite-power sums, empirical distances.

Randomness is counter-based: each block of 4096 rows draws from its own
Philox stream keyed by (seed, block index), so output is bit-identical
across runs and across worker layouts, and extending the sample count
extends the batch without changing existing rows.  Blocks run on a pool of
WORKERS threads (the CPUs the process may run on, at most 4); each writes
its rows into its own slice of the output.  A block yields its rows in
pieces: a circulant block draws its real parts whole, then runs the
imaginary parts, the FFT and the scaling in chunks of CHUNK_ROWS draws.
sample_Zn reduces each piece to its Z_n sums as it arrives, so its memory
is bounded by the worker count times one block, not by the sample count.

The normalized fBm increment vector is stationary Gaussian with
autocovariance rho_H; rows are drawn either through a Cholesky factor of
the n x n Toeplitz covariance or, for long vectors, through circulant
embedding of size 2n (exact in distribution whenever the embedding
eigenvalues are nonnegative; otherwise it falls back to Cholesky and
records the fallback in SampleBatch.meta["circulant_fallback"]).  A
numerically singular covariance gets a diagonal jitter of at most 1e-10
(relative to its diagonal) before the Cholesky factor succeeds;
meta["cholesky_jitter"] records it, None on the circulant path.  Both
generators are numpy code; the covariance matrix is breuer_major's
_toeplitz.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .breuer_major import BmInstance, _toeplitz, rho_values, sigma
from .chaos import hermite
from .tensors import _jittered_cholesky

__all__ = [
    "SimulationError",
    "SampleBatch",
    "sample_fbm_increments",
    "sample_Zn",
    "empirical_kolmogorov",
    "empirical_wasserstein",
    "chatterjee_weight",
]

BLOCK_ROWS = 4096
CHUNK_ROWS = 64  # circulant draws (or Cholesky rows) per piece of a block
CIRCULANT_MIN_N = 1025
WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


class SimulationError(Exception):
    """Raised on invalid sampling or distance-estimation inputs."""


@dataclass(frozen=True)
class SampleBatch:
    """Deterministic draw: same seed + meta reproduce identical values."""

    values: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)


def _stream(seed: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)])
    return np.random.Generator(np.random.Philox(key=key))


def _cholesky_factor(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of an increment covariance and the jitter it needed."""
    return _jittered_cholesky(
        cov, 1e-15, 1e-10, SimulationError("covariance is numerically singular")
    )


def _circulant_eigs(H: float, n: int) -> np.ndarray | None:
    vals = rho_values(H, n)
    first_row = np.concatenate([vals, vals[-2:0:-1]])
    lam = np.fft.fft(first_row).real
    if lam.min() < -1e-9 * lam.max():
        return None
    return np.clip(lam, 0.0, None)


def _fbm_blocks(
    H: float, n: int, count: int, seed: int, method: str = "auto"
) -> tuple[dict, Callable[[int], Iterator[tuple[slice, np.ndarray]]]]:
    """Generator meta and the per-block routine of an increment batch.

    pieces(start) draws the block whose first row is start and yields
    (rows, values) pairs: values holds the block rows picked by the slice
    rows, counted from start, and the pieces cover the block's rows up to
    count once each.  The generator is chosen once.  Every row depends only
    on (seed, row): the Cholesky product is formed at full BLOCK_ROWS shape
    (BLAS summation order depends on the operand shapes), and the circulant
    FFT and the scalings act row by row.
    """
    if not 0.0 < H < 1.0:
        raise SimulationError(f"Hurst index must lie in (0,1), got {H}")
    if n < 1 or count < 0:
        raise SimulationError("need n >= 1 and count >= 0")
    if method not in ("auto", "cholesky", "circulant"):
        raise SimulationError(f"unknown method {method!r}")

    use_circulant = method == "circulant" or (method == "auto" and n >= CIRCULANT_MIN_N)
    lam = _circulant_eigs(H, n) if use_circulant else None
    fallback = use_circulant and lam is None

    jitter = None
    if lam is not None:
        m = 2 * n
        root = np.sqrt(lam)
        draws = (BLOCK_ROWS + 1) // 2
        generator = "circulant-embedding"

        def draw(rng: np.random.Generator, rows: int) -> Iterator[tuple[slice, np.ndarray]]:
            # the stream holds every real part before any imaginary one; draw
            # d gives block row 2d from its real part and 2d + 1 from its
            # imaginary part
            real = rng.standard_normal((draws, m))
            needed = (rows + 1) // 2
            for d0 in range(0, needed, CHUNK_ROWS):
                d1 = min(d0 + CHUNK_ROWS, needed)
                z = np.empty((d1 - d0, m), dtype=complex)
                z.real = real[d0:d1]
                z.imag = rng.standard_normal((d1 - d0, m))
                z *= root
                y = np.fft.fft(z, axis=1, out=z)
                y /= math.sqrt(m)
                yield slice(2 * d0, 2 * d1, 2), y.real[:, :n]
                yield slice(2 * d0 + 1, 2 * d1, 2), y.imag[: min(d1, rows // 2) - d0, :n]

    else:
        factor, jitter = _cholesky_factor(_toeplitz(rho_values(H, n - 1)))
        generator = "cholesky-toeplitz"

        def draw(rng: np.random.Generator, rows: int) -> Iterator[tuple[slice, np.ndarray]]:
            block = rng.standard_normal((BLOCK_ROWS, n)) @ factor.T
            for r0 in range(0, rows, CHUNK_ROWS):
                r1 = min(r0 + CHUNK_ROWS, rows)
                yield slice(r0, r1), block[r0:r1]

    meta = {
        "generator": generator,
        "H": H,
        "n": n,
        "count": count,
        "circulant_fallback": fallback,
        "cholesky_jitter": jitter,
    }

    def pieces(start: int) -> Iterator[tuple[slice, np.ndarray]]:
        return draw(_stream(seed, start // BLOCK_ROWS), min(BLOCK_ROWS, count - start))

    return meta, pieces


def _each_block(count: int, work: Callable[[int], None]) -> None:
    """work(start) for the first row of every block, on up to WORKERS threads."""
    starts = range(0, count, BLOCK_ROWS)
    with ThreadPoolExecutor(max_workers=max(1, min(WORKERS, len(starts)))) as pool:
        for _ in pool.map(work, starts):
            pass


def sample_fbm_increments(
    H: float, n: int, count: int, seed: int, method: str = "auto"
) -> SampleBatch:
    """count independent rows of {n^H (B_{(k+1)/n} - B_{k/n})}, k < n."""
    meta, pieces = _fbm_blocks(H, n, count, seed, method)
    out = np.empty((count, n))

    def fill(start: int) -> None:
        block = out[start : start + BLOCK_ROWS]
        for rows, values in pieces(start):
            block[rows] = values

    _each_block(count, fill)
    return SampleBatch(values=out, seed=seed, meta=meta)


def sample_Zn(H: float, q: int, n: int, count: int, seed: int) -> SampleBatch:
    """count draws of Z_n = (1/(sigma sqrt(n))) sum_k H_q(increment_k)."""
    BmInstance(H, q, n)  # validates the (H, q) admissible range
    meta, pieces = _fbm_blocks(H, n, count, seed)
    sig = sigma(H, q)
    sums = np.empty(count)

    def reduce(start: int) -> None:
        block = sums[start : start + BLOCK_ROWS]
        for rows, values in pieces(start):
            block[rows] = hermite(q, values).sum(axis=1)

    _each_block(count, reduce)
    meta.update({"generator": "breuer-major-Zn", "q": q, "sigma": sig,
                 "increments": meta["generator"]})
    return SampleBatch(values=sums / (sig * math.sqrt(n)), seed=seed, meta=meta)


def empirical_kolmogorov(samples: np.ndarray, cdf: Callable) -> float:
    """Exact sup_z |F_emp(z) - F(z)|, evaluated on both sides of each jump."""
    data = np.asarray(samples, dtype=float).ravel()
    if data.size == 0:
        raise SimulationError("empty sample")
    values, counts = np.unique(data, return_counts=True)  # sorted
    above = np.cumsum(counts) / data.size
    below = np.concatenate([[0.0], above[:-1]])
    target = np.asarray(cdf(values), dtype=float)
    return float(np.max(np.maximum(np.abs(above - target), np.abs(below - target))))


def empirical_wasserstein(samples: np.ndarray, quantile: Callable) -> float:
    """Mean |order statistic - target quantile| at plotting positions (i-1/2)/N."""
    data = np.sort(np.asarray(samples, dtype=float).ravel())
    if data.size == 0:
        raise SimulationError("empty sample")
    positions = (np.arange(data.size) + 0.5) / data.size
    return float(np.mean(np.abs(data - np.asarray(quantile(positions), dtype=float))))


def chatterjee_weight(
    grad_g: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    t_nodes: int = 64,
    mc_count: int = 20_000,
    seed: int = 0,
) -> float:
    """Interpolation weight S(v) of the Gaussian-perturbation identity:

        S(v) = int_0^1 (2 sqrt(t))^{-1}
               E[ sum_i d_i g(v) d_i g(sqrt(t) v + sqrt(1-t) V) ] dt,

    with V standard normal.  The substitution t = u^2 removes the kernel
    singularity, leaving int_0^1 E[...](u) du, handled by Gauss-Legendre in
    u and a shared Monte Carlo batch over V.
    """
    point = np.asarray(v, dtype=float)
    if point.ndim != 1:
        raise SimulationError("v must be a single point (1-d array)")
    grad_at_v = np.asarray(grad_g(point[None, :]), dtype=float).reshape(-1)
    if grad_at_v.shape != point.shape:
        raise SimulationError("gradient oracle returned a wrong shape")
    nodes, weights = np.polynomial.legendre.leggauss(int(t_nodes))
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    normals = _stream(seed, 0).standard_normal((int(mc_count), point.size))
    total = 0.0
    for uj, wj in zip(u, w):
        pts = uj * point[None, :] + math.sqrt(max(1.0 - uj * uj, 0.0)) * normals
        grads = np.asarray(grad_g(pts), dtype=float)
        total += wj * float(np.mean(grads @ grad_at_v))
    return total
