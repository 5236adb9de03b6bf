"""Monte Carlo: fGn sampling, Hermite-power sums, empirical distances.

Randomness is counter-based: each block of 4096 rows draws from its own
Philox stream keyed by (seed, block index), so output is bit-identical
across runs, across worker layouts and across BLAS thread counts, and
extending the sample count extends the batch without changing existing
rows.  Blocks run on a pool of WORKERS threads (the CPUs the process may
run on, at most 4); each writes its rows into its own slice of the output.
While the pool runs, and while the Cholesky factor is formed, a loaded
OpenBLAS is held at one thread (found through ctypes on first use; where
no thread control is found nothing changes and the pin reports None), so
its helper threads do not compete with the workers and no result depends
on the BLAS thread count.  A block yields its rows in pieces: a circulant
block draws its real parts whole, then runs the imaginary parts (drawn into
the real parts just consumed), the FFT and the scaling in chunks of
CHUNK_ROWS draws through one complex buffer.  sample_Zn reduces each piece
to its Z_n sums as it arrives.

Every call allocates one workspace, in the calling thread: one slot per
worker that can run at once, min(WORKERS, blocks) slots, none when count is
0.  A circulant slot holds a block's (BLOCK_ROWS+1)//2 x 2n real parts and
the CHUNK_ROWS x 2n complex chunk; a Cholesky slot holds a block's
BLOCK_ROWS x n normals and their product with the factor.  Each block
borrows a free slot and returns it once its pieces are consumed, so no
block allocates inside a worker thread, and the slots are freed when the
call returns.  A call's memory is therefore the formula of _sampler_bytes:
slots x slot bytes, plus the output (8 count bytes for sample_Zn, 8 count n
for sample_fbm_increments), plus the generator's own array (the n x n
Cholesky factor, or the 2n square roots of the circulant eigenvalues).  A
call whose total exceeds the physical memory (os.sysconf) is refused with
SimulationError before anything is drawn.

The normalized fBm increment vector is stationary Gaussian with
autocovariance rho_H; rows are drawn either through a Cholesky factor of
the n x n Toeplitz covariance or, when n >= CIRCULANT_MIN_N, through
circulant embedding of size 2n (exact in distribution whenever the embedding
eigenvalues are nonnegative; otherwise it falls back to Cholesky and
records the fallback in SampleBatch.meta["circulant_fallback"]).  A
numerically singular covariance gets a diagonal jitter of at most 1e-10
(relative to its diagonal) before the Cholesky factor succeeds;
meta["cholesky_jitter"] records it, None on the circulant path.  Both
generators are numpy code; the covariance matrix and the circulant's first
column both come from steinchaos._toeplitz (its dense builder and its
circulant embedding).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Iterator

import numpy as np

from ._toeplitz import _circulant_column, _toeplitz
from .breuer_major import BmInstance, rho_values, sigma
from .chaos import hermite
from .tensors import _jittered_cholesky, _physical_memory

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


# (get, set) thread-count symbols of OpenBLAS builds, most specific first:
# numpy's bundled scipy-openblas, then 64-bit-integer and plain OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


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


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) thread-count functions of the OpenBLAS already loaded, or None.

    Looked up on first use, not at import: the shared objects named
    *openblas* in /proc/self/maps (numpy's numpy.libs/libscipy_openblas64_*.so
    among them) are opened with RTLD_NOLOAD, so no second copy loads.
    """
    try:
        with open("/proc/self/maps") as maps:  # the path is the last field
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return None
    libraries = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            libraries.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            continue
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        for library in libraries:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _BlasPin:
    """Context manager: OpenBLAS at one thread while any caller is inside it.

    The first caller in saves the thread count and sets 1; the last one out
    restores it, so callers in several threads never restore it under each
    other.  Where no thread control is found it changes nothing, and threads
    is None.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    @property
    def threads(self) -> int | None:
        """BLAS threads inside the pin: 1, or None where it changes nothing."""
        return None if _openblas_threads() is None else 1

    def __enter__(self) -> _BlasPin:
        control = _openblas_threads()
        if control is not None:
            with self._lock:
                if self._depth == 0:
                    self._saved = control[0]()
                    control[1](1)
                self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        control = _openblas_threads()
        if control is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    control[1](self._saved)


_one_blas_thread = _BlasPin()


def _cholesky_factor(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of an increment covariance and the jitter it needed.

    The factorization runs at one BLAS thread: OpenBLAS's threaded potrf
    rounds differently from its serial one.
    """
    with _one_blas_thread:
        return _jittered_cholesky(
            cov, 1e-15, 1e-10, SimulationError("covariance is numerically singular")
        )


def _circulant_eigs(H: float, n: int) -> np.ndarray | None:
    lam = np.fft.fft(_circulant_column(rho_values(H, n))).real
    if lam.min() < -1e-9 * lam.max():
        return None
    return np.clip(lam, 0.0, None)


def _slot_buffers(n: int, circulant: bool) -> tuple[tuple[tuple[int, int], type], ...]:
    """(shape, dtype) of each buffer of one workspace slot."""
    if circulant:  # a block's real parts, and the complex chunk
        return ((((BLOCK_ROWS + 1) // 2, 2 * n), float), ((CHUNK_ROWS, 2 * n), complex))
    return (((BLOCK_ROWS, n), float),) * 2  # a block's normals, and their product


def _slot_count(count: int) -> int:
    return min(WORKERS, -(-count // BLOCK_ROWS))


def _sampler_bytes(n: int, count: int, row_bytes: int, circulant: bool) -> int:
    """Bytes one sampler call holds at once, output of row_bytes per row.

    The workspace, the output and the generator's own array: the n x n
    Cholesky factor, or the 2n square roots of the circulant eigenvalues.
    The Cholesky factorization's transients (a few n x n arrays) are freed
    before the workspace is allocated and are smaller than one slot below
    n = 2048.
    """
    slot = sum(math.prod(shape) * np.dtype(dtype).itemsize
               for shape, dtype in _slot_buffers(n, circulant))
    own = 8 * 2 * n if circulant else 8 * n * n
    return _slot_count(count) * slot + count * row_bytes + own


def _check_memory(n: int, count: int, row_bytes: int, circulant: bool | None = None) -> None:
    """Refuse a sampler call whose _sampler_bytes exceed the physical memory.

    circulant None means the generator n alone picks; the budget is not
    checked where os.sysconf cannot read the physical memory.
    """
    if circulant is None:
        circulant = n >= CIRCULANT_MIN_N
    need, budget = _sampler_bytes(n, count, row_bytes, circulant), _physical_memory()
    if budget is not None and need > budget:
        raise SimulationError(f"sampling needs ~{Decimal(need):.2g} bytes > memory budget "
                              f"{Decimal(budget):.2g} bytes (the physical memory)")


def _fbm_blocks(
    H: float, n: int, count: int, seed: int, row_bytes: int
) -> tuple[dict, Callable[[int], Iterator[tuple[slice, np.ndarray]]]]:
    """Generator meta and the per-block routine of an increment batch.

    pieces(start) draws the block whose first row is start and yields
    (rows, values) pairs: values holds the block rows picked by the slice
    rows, counted from start, and the pieces cover the block's rows up to
    count once each; values is a view of a workspace buffer that the next
    piece may overwrite.  The generator is chosen once, from n alone:
    circulant embedding when n >= CIRCULANT_MIN_N, else Cholesky.  Every row
    depends only on (seed, row): the Cholesky product is formed at full
    BLOCK_ROWS shape (BLAS summation order depends on the operand shapes),
    and the circulant FFT and the scalings act row by row.  A block borrows
    a workspace slot for as long as its pieces run; the caller's output
    takes row_bytes per row, and the call's memory is checked against the
    physical memory before anything is built.
    """
    if not 0.0 < H < 1.0:
        raise SimulationError(f"Hurst index must lie in (0,1), got {H}")
    if n < 1 or count < 0:
        raise SimulationError("need n >= 1 and count >= 0")

    use_circulant = n >= CIRCULANT_MIN_N
    _check_memory(n, count, row_bytes, use_circulant)
    lam = _circulant_eigs(H, n) if use_circulant else None
    fallback = use_circulant and lam is None

    jitter = None
    if lam is not None:
        root = np.sqrt(lam, out=lam)
        inv_scale = 1.0 / math.sqrt(2 * n)
        generator = "circulant-embedding"

        def draw(slot: tuple[np.ndarray, ...], rng: np.random.Generator,
                 rows: int) -> Iterator[tuple[slice, np.ndarray]]:
            # the stream holds every real part before any imaginary one; draw
            # d gives block row 2d from its real part and 2d + 1 from its
            # imaginary part
            real, chunk = slot
            rng.standard_normal(out=real)
            needed = (rows + 1) // 2
            for d0 in range(0, needed, CHUNK_ROWS):
                d1 = min(d0 + CHUNK_ROWS, needed)
                z = chunk[: d1 - d0]
                np.multiply(real[d0:d1], root, out=z.real)
                # the real parts just consumed take the imaginary normals
                imag = rng.standard_normal(out=real[d0:d1])
                np.multiply(imag, root, out=z.imag)
                y = np.fft.fft(z, axis=1, out=z)[:, :n]
                parts = y.view(float)  # real and imaginary parts, side by side
                parts *= inv_scale
                yield slice(2 * d0, 2 * d1, 2), y.real
                yield slice(2 * d0 + 1, 2 * d1, 2), y.imag[: min(d1, rows // 2) - d0]

    else:
        if fallback:
            _check_memory(n, count, row_bytes, False)
        factor, jitter = _cholesky_factor(_toeplitz(rho_values(H, n - 1)))
        generator = "cholesky-toeplitz"

        def draw(slot: tuple[np.ndarray, ...], rng: np.random.Generator,
                 rows: int) -> Iterator[tuple[slice, np.ndarray]]:
            # a partial block draws only its rows and zeroes the rest; the
            # product keeps its full shape, so each row's sum order does not
            # depend on rows
            normals, product = slot
            rng.standard_normal(out=normals[:rows])
            normals[rows:] = 0.0
            np.matmul(normals, factor.T, out=product)
            for r0 in range(0, rows, CHUNK_ROWS):
                r1 = min(r0 + CHUNK_ROWS, rows)
                yield slice(r0, r1), product[r0:r1]

    meta = {
        "generator": generator,
        "H": H,
        "n": n,
        "count": count,
        "circulant_fallback": fallback,
        "cholesky_jitter": jitter,
    }
    buffers = _slot_buffers(n, lam is not None)
    free = [tuple(np.empty(shape, dtype) for shape, dtype in buffers)
            for _ in range(_slot_count(count))]

    def pieces(start: int) -> Iterator[tuple[slice, np.ndarray]]:
        # at most len(free) blocks run at once, so a slot is always free
        slot = free.pop()
        try:
            yield from draw(slot, _stream(seed, start // BLOCK_ROWS),
                            min(BLOCK_ROWS, count - start))
        finally:
            free.append(slot)

    return meta, pieces


def _each_block(count: int, work: Callable[[int], None]) -> None:
    """work(start) for the first row of every block, on up to WORKERS threads.

    BLAS runs at one thread meanwhile: its helper threads would compete with
    the workers for the CPUs, and a threaded GEMM rounds differently.
    """
    with _one_blas_thread, ThreadPoolExecutor(max_workers=max(1, _slot_count(count))) as pool:
        for _ in pool.map(work, range(0, count, BLOCK_ROWS)):
            pass


def sample_fbm_increments(H: float, n: int, count: int, seed: int) -> SampleBatch:
    """count independent rows of {n^H (B_{(k+1)/n} - B_{k/n})}, k < n."""
    meta, pieces = _fbm_blocks(H, n, count, seed, 8 * n)
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
    meta, pieces = _fbm_blocks(H, n, count, seed, 8)
    sig = sigma(H, q)
    sums = np.empty(count)

    def reduce(start: int) -> None:
        block = sums[start : start + BLOCK_ROWS]
        for rows, values in pieces(start):
            block[rows] = hermite(q, values).sum(axis=1)

    _each_block(count, reduce)
    sums /= sig * math.sqrt(n)  # in place: the output is the one count-long array
    meta.update({"generator": "breuer-major-Zn", "q": q, "sigma": sig,
                 "increments": meta["generator"]})
    return SampleBatch(values=sums, seed=seed, meta=meta)


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
