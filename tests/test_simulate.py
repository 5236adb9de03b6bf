import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import ndtr, ndtri

from steinchaos import simulate
from steinchaos.breuer_major import BmInstance, bm_bound_exact, rho, rho_values, sigma
from steinchaos.chaos import ChaosVector, hermite, malliavin_inner
from steinchaos.simulate import (
    BLOCK_ROWS,
    CHUNK_ROWS,
    CIRCULANT_MIN_N,
    SimulationError,
    chatterjee_weight,
    empirical_kolmogorov,
    empirical_wasserstein,
    sample_fbm_increments,
    sample_Zn,
)
from steinchaos.tensors import GramSpace, tensor_power

MiB = 2**20


def test_fbm_unit_variance_all_h():
    for H in (0.2, 0.5, 0.8):
        batch = sample_fbm_increments(H, 4, 50_000, seed=1)
        var = batch.values.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 3 * math.sqrt(2.0 / 50_000) + 0.01)


def test_fbm_lag_one_correlation():
    batch = sample_fbm_increments(0.75, 8, 100_000, seed=7)
    x = batch.values
    lag1 = float(np.mean(x[:, :-1] * x[:, 1:]))
    assert lag1 == pytest.approx(math.sqrt(2) - 1, abs=3.0 / math.sqrt(100_000) * 1.5)
    iid = sample_fbm_increments(0.5, 8, 100_000, seed=7).values
    assert float(np.mean(iid[:, :-1] * iid[:, 1:])) == pytest.approx(
        0.0, abs=3.0 / math.sqrt(100_000) * 1.5
    )


def test_fbm_reproducible_and_prefix_stable():
    a = sample_fbm_increments(0.7, 8, 9000, seed=13)
    b = sample_fbm_increments(0.7, 8, 9000, seed=13)
    assert np.array_equal(a.values, b.values)
    c = sample_fbm_increments(0.7, 8, 4097, seed=13)
    assert np.array_equal(a.values[:4097], c.values)
    d = sample_fbm_increments(0.7, 8, 9000, seed=14)
    assert not np.array_equal(a.values, d.values)


def test_fbm_circulant_matches_cholesky_covariance(monkeypatch):
    H, n, count = 0.7, 1500, 3000
    circ = sample_fbm_increments(H, n, count, seed=3)
    monkeypatch.setattr(simulate, "CIRCULANT_MIN_N", n + 1)  # Cholesky at this n
    chol = sample_fbm_increments(H, n, count, seed=3)
    assert chol.meta["generator"] == "cholesky-toeplitz"
    assert circ.meta["generator"] == "circulant-embedding"
    assert not circ.meta["circulant_fallback"]
    tol = 3.0 / math.sqrt(count) * 1.5
    for lag in (0, 1, 5):
        emp_c = float(np.mean(circ.values[:, 0] * circ.values[:, lag]))
        emp_l = float(np.mean(chol.values[:, 0] * chol.values[:, lag]))
        assert emp_c == pytest.approx(rho(H, lag), abs=tol)
        assert emp_l == pytest.approx(rho(H, lag), abs=tol)


def test_fbm_invalid_inputs():
    with pytest.raises(SimulationError):
        sample_fbm_increments(1.5, 4, 10, seed=0)
    with pytest.raises(SimulationError):
        sample_fbm_increments(0.5, 0, 10, seed=0)


def test_zn_closed_form_single_increment():
    batch = sample_Zn(0.5, 2, 1, 512, seed=11)
    xi = sample_fbm_increments(0.5, 1, 512, seed=11).values[:, 0]
    assert np.allclose(batch.values, (xi**2 - 1.0) / math.sqrt(2.0), atol=1e-12)


def test_zn_variance_and_mean():
    batch = sample_Zn(0.5, 2, 64, 100_000, seed=2)
    assert batch.values.mean() == pytest.approx(0.0, abs=3 * 2 / math.sqrt(100_000))
    assert batch.values.var() == pytest.approx(1.0, abs=0.03)


def test_zn_validates_instance():
    with pytest.raises(Exception):
        sample_Zn(0.8, 2, 4, 10, seed=0)
    with pytest.raises(SimulationError):
        sample_Zn(0.5, 2, 4, -1, seed=0)


def test_zn_equals_hermite_sum_of_increments():
    # both generators, across a block boundary into a partial block
    count = BLOCK_ROWS + 7
    for H, q, n, generator in ((0.6, 2, 300, "cholesky-toeplitz"),
                               (0.7, 3, 1100, "circulant-embedding")):
        batch = sample_Zn(H, q, n, count, seed=4)
        increments = sample_fbm_increments(H, n, count, seed=4)
        assert increments.meta["generator"] == generator
        expect = hermite(q, increments.values).sum(axis=1) / (sigma(H, q) * math.sqrt(n))
        assert np.array_equal(batch.values, expect)
        assert batch.meta["increments"] == generator


def test_zn_memory_bounded_by_block():
    n, count = 64, 10 * BLOCK_ROWS
    sample_Zn(0.6, 2, n, 1, seed=0)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        sample_Zn(0.6, 2, n, count, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count * n * 8


def _oracle_fbm_blocks(H, n, count, seed):
    """Deliberate oracle: the block sampler before chunked circulant
    reduction and the worker pool, kept as it was apart from its input
    checks and meta.  Each block is drawn whole (the circulant block as one
    complex array, its rows interleaved into a second one) and the blocks
    run one after another in block order."""
    lam = simulate._circulant_eigs(H, n) if n >= simulate.CIRCULANT_MIN_N else None

    if lam is not None:
        m = 2 * n
        root = np.sqrt(lam)
        draws = (BLOCK_ROWS + 1) // 2

        def draw(rng):
            z = np.empty((draws, m), dtype=complex)
            z.real = rng.standard_normal((draws, m))
            z.imag = rng.standard_normal((draws, m))
            z *= root
            y = np.fft.fft(z, axis=1, out=z)
            y /= math.sqrt(m)
            pair = np.empty((2 * draws, n))
            pair[0::2] = y.real[:, :n]
            pair[1::2] = y.imag[:, :n]
            return pair

    else:
        factor, _ = simulate._cholesky_factor(toeplitz(rho_values(H, n - 1)))

        def draw(rng):
            normals = rng.standard_normal((BLOCK_ROWS, n))
            with simulate._one_blas_thread:  # the sampler's GEMMs run at one BLAS thread
                return normals @ factor.T

    return (
        (start, draw(simulate._stream(seed, start // BLOCK_ROWS))[: count - start])
        for start in range(0, count, BLOCK_ROWS)
    )


def _oracle_increments(H, n, count, seed):
    out = np.empty((count, n))
    for start, rows in _oracle_fbm_blocks(H, n, count, seed):
        out[start : start + BLOCK_ROWS] = rows
    return out


def _oracle_Zn(H, q, n, count, seed):
    """Deliberate oracle: sample_Zn as it reduced whole blocks in turn."""
    sums = np.empty(count)
    for start, rows in _oracle_fbm_blocks(H, n, count, seed):
        sums[start : start + BLOCK_ROWS] = hermite(q, rows).sum(axis=1)
        del rows
    return sums / (sigma(H, q) * math.sqrt(n))


COUNTS = (0, 1, BLOCK_ROWS, BLOCK_ROWS + 7, 3 * BLOCK_ROWS + 1)


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("n", (1025, 1100, 2048))
def test_circulant_zn_matches_oracle(q, n):
    # one full block and a partial one; an odd row count ends on a draw
    # whose imaginary part is not used
    for count in (1, BLOCK_ROWS + 7):
        batch = sample_Zn(0.6, q, n, count, seed=31)
        assert batch.meta["increments"] == "circulant-embedding"
        assert np.array_equal(batch.values, _oracle_Zn(0.6, q, n, count, 31))


@pytest.mark.parametrize("n", (1, 64, 300))
def test_cholesky_zn_and_increments_match_oracle(n):
    for count in COUNTS:
        batch = sample_Zn(0.6, 2, n, count, seed=17)
        assert np.array_equal(batch.values, _oracle_Zn(0.6, 2, n, count, 17))
        inc = sample_fbm_increments(0.7, n, count, seed=17)
        assert inc.meta["generator"] == "cholesky-toeplitz"
        assert np.array_equal(inc.values, _oracle_increments(0.7, n, count, 17))


def test_circulant_increments_match_oracle_at_every_count():
    n = 1025
    for count in COUNTS:
        inc = sample_fbm_increments(0.3, n, count, seed=9)
        assert inc.meta["generator"] == "circulant-embedding"
        assert np.array_equal(inc.values, _oracle_increments(0.3, n, count, 9))


def test_forced_cholesky_above_circulant_threshold_matches_oracle(monkeypatch):
    n, count = 1100, BLOCK_ROWS + 7
    monkeypatch.setattr(simulate, "CIRCULANT_MIN_N", n + 1)  # Cholesky at this n
    inc = sample_fbm_increments(0.3, n, count, seed=9)
    assert inc.meta["generator"] == "cholesky-toeplitz"
    assert np.array_equal(inc.values, _oracle_increments(0.3, n, count, 9))


def test_samples_do_not_depend_on_worker_count(monkeypatch):
    cases = ((0.6, 2, 64, 3 * BLOCK_ROWS + 1), (0.6, 3, 1025, BLOCK_ROWS + 7))
    default = [sample_Zn(*case, seed=8).values for case in cases]
    inc_default = sample_fbm_increments(0.3, 1025, BLOCK_ROWS + 7, seed=8).values
    monkeypatch.setattr(simulate, "WORKERS", 1)
    for case, values in zip(cases, default):
        assert np.array_equal(sample_Zn(*case, seed=8).values, values)
    assert np.array_equal(sample_fbm_increments(0.3, 1025, BLOCK_ROWS + 7, seed=8).values,
                          inc_default)


# prints the digests of a Cholesky-path increment batch and Z_n batch
_DIGESTS = """
import hashlib
from steinchaos.simulate import BLOCK_ROWS, sample_fbm_increments, sample_Zn
for batch in (sample_fbm_increments(0.7, 300, BLOCK_ROWS + 7, 17),
              sample_Zn(0.6, 2, 300, BLOCK_ROWS + 7, 17)):
    print(hashlib.sha256(batch.values.tobytes()).hexdigest())
"""


def test_samples_do_not_depend_on_blas_threads():
    if simulate._one_blas_thread.threads is None:
        pytest.skip("no OpenBLAS thread control: the sampler pins nothing")
    # a fresh interpreter per count: OpenBLAS reads OPENBLAS_NUM_THREADS
    # once, when numpy loads it
    src = str(Path(simulate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGESTS],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


@pytest.fixture
def blas_control():
    """The OpenBLAS (get, set) pair at 2 threads, restored after the test."""
    control = simulate._openblas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get, set_ = control
    before = get()
    set_(2)
    try:
        yield get, set_
    finally:
        set_(before)


def test_blas_count_restored_after_the_pool_also_when_a_block_raises(blas_control):
    get, _ = blas_control
    seen = []

    def work(start):
        seen.append(get())
        if start == BLOCK_ROWS:
            raise SimulationError("block failed")

    with pytest.raises(SimulationError, match="block failed"):
        simulate._each_block(3 * BLOCK_ROWS, work)
    assert seen and set(seen) == {1}  # blocks still pending are cancelled
    assert get() == 2
    assert simulate._one_blas_thread.threads == 1


def test_concurrent_callers_get_the_serial_bits(blas_control):
    get, _ = blas_control
    args = (0.6, 2, 300, BLOCK_ROWS + 7, 17)
    serial = sample_Zn(*args).values
    results = [None] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def call(i):
            results[i] = sample_Zn(*args).values

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(values is not None and np.array_equal(values, serial) for values in results)
    assert get() == 2


def _zn_peak(H, q, n, count, seed):
    sample_Zn(H, q, n, 1, seed)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        sample_Zn(H, q, n, count, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_circulant_zn_memory_bounded_by_workers_times_block(monkeypatch):
    # one circulant block holds its real parts (2048 x 4096 doubles, 64 MiB)
    # and one chunk; the whole-block draw peaked at 192 MiB on one thread
    args = (0.6, 2, 2048, 20_000, 123)
    assert _zn_peak(*args) < simulate.WORKERS * 80 * MiB
    monkeypatch.setattr(simulate, "WORKERS", 1)
    assert _zn_peak(*args) < 96 * MiB


def _piece_temporaries(q, n):
    """Traced peak of reducing one piece: hermite's arrays and ufunc buffers.

    A circulant piece is a strided view into the complex chunk.
    """
    if n >= CIRCULANT_MIN_N:
        piece = np.ones((CHUNK_ROWS, 2 * n), dtype=complex)[:, :n].real
    else:
        piece = np.ones((CHUNK_ROWS, n))
    tracemalloc.start()
    try:
        hermite(q, piece).sum(axis=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("q, n", ((2, 256), (3, 256), (2, 1100), (3, 1100)))
def test_memory_model_matches_the_traced_peak(monkeypatch, workers, q, n):
    # three blocks, the last partial: every slot is used, and reused.  The
    # workspace, the output and the factor (or the circulant roots) are all
    # live while the blocks run, so the model is a lower bound; above it
    # each running block adds one piece's Hermite temporaries, and the pool
    # a few Python objects
    monkeypatch.setattr(simulate, "WORKERS", workers)
    count = 2 * BLOCK_ROWS + 7
    model = simulate._sampler_bytes(n, count, 8, n >= CIRCULANT_MIN_N)
    peak = _zn_peak(0.6, q, n, count, 5)
    assert model <= peak <= model + workers * _piece_temporaries(q, n) + 64 * 1024


def test_memory_guard_refuses_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a block was drawn")

    n, count = 300, BLOCK_ROWS + 7
    need = simulate._sampler_bytes(n, count, 8 * n, False)
    monkeypatch.setattr(simulate, "_physical_memory", lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(simulate, "_stream", no_draw)
        with pytest.raises(SimulationError, match="memory budget"):
            sample_fbm_increments(0.6, n, count, seed=1)
    monkeypatch.setattr(simulate, "_physical_memory", lambda: need)
    assert sample_fbm_increments(0.6, n, count, seed=1).values.shape == (count, n)


@pytest.mark.parametrize("count", (10**13, 10**30))
def test_counts_beyond_physical_memory_are_refused(count):
    if simulate._physical_memory() is None:
        pytest.skip("os.sysconf gives no physical memory size here")
    for sampler in (lambda: sample_Zn(0.6, 2, 64, count, 0),
                    lambda: sample_fbm_increments(0.6, 64, count, 0)):
        with pytest.raises(SimulationError, match="memory budget"):
            sampler()


def test_blocks_sharing_the_workspace_keep_the_serial_bits(monkeypatch):
    # more workers than cores and frequent thread switches: two blocks
    # sharing one slot would overwrite each other's rows
    args = (0.6, 2, 64, 9 * BLOCK_ROWS + 3, 21)
    monkeypatch.setattr(simulate, "WORKERS", 1)
    serial = sample_Zn(*args).values
    monkeypatch.setattr(simulate, "WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        values = sample_Zn(*args).values
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(values, serial)


def test_a_block_that_raises_returns_its_slot(monkeypatch):
    monkeypatch.setattr(simulate, "WORKERS", 1)  # one slot
    _, pieces = simulate._fbm_blocks(0.6, 64, 2 * BLOCK_ROWS, 3, 8)

    def consume_one_piece():
        for _ in pieces(0):
            raise RuntimeError("reduction failed")

    with pytest.raises(RuntimeError, match="reduction failed"):
        consume_one_piece()
    rows = [rows for rows, _ in pieces(BLOCK_ROWS)]  # the one slot is free again
    assert rows[0] == slice(0, CHUNK_ROWS) and len(rows) == BLOCK_ROWS // CHUNK_ROWS


def test_empirical_kolmogorov_exact_values():
    assert empirical_kolmogorov(np.array([-1.0, 0.0, 1.0]), ndtr) == pytest.approx(
        1.0 / 3.0 - float(ndtr(-1.0)), abs=1e-12
    )
    assert empirical_kolmogorov(np.array([0.0]), ndtr) == pytest.approx(0.5)
    with pytest.raises(SimulationError):
        empirical_kolmogorov(np.array([]), ndtr)


def test_empirical_kolmogorov_handles_ties():
    samples = np.array([0.3, 0.3, 0.3, 0.9])
    d = empirical_kolmogorov(samples, ndtr)
    expect = max(
        abs(0.75 - ndtr(0.3)), abs(0.0 - ndtr(0.3)), abs(1.0 - ndtr(0.9)),
        abs(0.75 - ndtr(0.9)),
    )
    assert d == pytest.approx(float(expect))


def test_empirical_wasserstein_values():
    n = 100_000
    assert empirical_wasserstein(np.zeros(n), ndtri) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-3
    )
    q = ndtri((np.arange(n) + 0.5) / n)
    assert empirical_wasserstein(q, ndtri) == 0.0
    assert empirical_wasserstein(q + 0.25, ndtri) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(SimulationError):
        empirical_wasserstein(np.array([]), ndtri)


def _grad_quadratic(pts):
    out = np.zeros_like(pts)
    out[:, 0] = 2.0 * pts[:, 0] / math.sqrt(2.0)
    return out


def test_chatterjee_weight_constant_gradient():
    def grad(pts):
        out = np.zeros_like(pts)
        out[:, 0] = 1.0
        return out

    s = chatterjee_weight(grad, np.array([0.4, -1.0]), t_nodes=16, mc_count=2000, seed=5)
    assert s == pytest.approx(1.0, abs=1e-12)


def test_chatterjee_weight_zero_gradient():
    grad = lambda pts: np.zeros_like(pts)
    assert chatterjee_weight(grad, np.array([1.0, 2.0]), 8, 100, 0) == 0.0


def test_chatterjee_weight_matches_malliavin_inner():
    # g(v) = (v1^2 - 1)/sqrt(2) = I_2(e1 x e1)/sqrt(2): S(v) = v1^2 exactly,
    # and <DY, -DL^{-1}Y> evaluated pathwise is the same function
    space = GramSpace.standard(2)
    Y = ChaosVector.single((1.0 / math.sqrt(2.0)) * tensor_power(space, np.array([1.0, 0.0]), 2))
    w = malliavin_inner(Y)
    for v1 in (0.0, 0.7, 1.5, -2.0):
        v = np.array([v1, 0.3])
        s = chatterjee_weight(_grad_quadratic, v, t_nodes=32, mc_count=60_000, seed=9)
        tol = 3.0 * 2.0 * (1.0 + v1 * v1) / math.sqrt(60_000)
        assert s == pytest.approx(v1 * v1, abs=tol + 1e-9)
        assert w.eval(v) == pytest.approx(v1 * v1, abs=1e-12)


def test_chatterjee_identity_for_cosine():
    # E[Y f(Y)] = E[S(V) f'(Y)] with S evaluated through the chaos weight
    rng = np.random.Generator(np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
    n = 100_000
    v = rng.standard_normal((n, 2))
    y = (v[:, 0] ** 2 - 1.0) / math.sqrt(2.0)
    s = v[:, 0] ** 2  # S(V) for this g, equal to the Malliavin weight
    lhs = y * np.cos(y)
    rhs = s * (-np.sin(y))
    diff = lhs - rhs
    assert abs(diff.mean()) <= 3.0 * diff.std() / math.sqrt(n)


def test_bound_domination_small_grid():
    # empirical Kolmogorov distance below the exact bound plus MC allowance
    allowance = 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * 20_000))
    for H, n in ((0.5, 16), (0.6, 64)):
        batch = sample_Zn(H, 2, n, 20_000, seed=21)
        ks = empirical_kolmogorov(batch.values, ndtr)
        bound = bm_bound_exact(BmInstance(H, 2, n)).bound
        assert ks <= bound + allowance


def test_cholesky_factor_reports_its_jitter():
    cov = np.ones((3, 3))  # singular: needs jitter
    factor, jitter = simulate._cholesky_factor(cov)
    assert 1e-15 <= jitter <= 1e-10
    assert np.array_equal(factor, np.linalg.cholesky(cov + jitter * np.eye(3)))
    assert simulate._cholesky_factor(toeplitz(rho_values(0.7, 63)))[1] == 0.0
    with pytest.raises(SimulationError):
        simulate._cholesky_factor(np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]]))
    assert sample_fbm_increments(0.7, 64, 1, seed=1).meta["cholesky_jitter"] == 0.0
    assert sample_fbm_increments(0.7, CIRCULANT_MIN_N, 1, seed=1).meta[
        "cholesky_jitter"] is None
