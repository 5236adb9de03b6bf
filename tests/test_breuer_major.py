import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import matmul_toeplitz, toeplitz
from scipy.special import zeta

from steinchaos import breuer_major
from steinchaos.breuer_major import (
    DEFAULT_OP_BUDGET,
    SIGMA_DIRECT_TERMS,
    BmInstance,
    BreuerMajorError,
    DivergenceError,
    ResourceGuardError,
    bm_bound_exact,
    bm_kernel,
    bm_rate,
    bm_table,
    rho,
    rho_values,
    sigma,
    sigma_quadratic,
    _check_op_budget,
    _contraction_norms,
    _hurwitz_zeta,
)
from steinchaos._toeplitz import _complete_graph, _toeplitz, _toeplitz_product
from steinchaos.bounds import gauss_bound_single
from steinchaos.chaos import hermite
from steinchaos.simulate import sample_fbm_increments


def test_rho_values():
    assert rho(0.3, 0) == 1.0
    assert rho(0.5, 5) == 0.0
    assert rho(0.75, 1) == pytest.approx(math.sqrt(2) - 1)
    with pytest.raises(BreuerMajorError):
        rho(1.2, 1)


def test_rho_symmetry_and_decay():
    for H in (0.2, 0.55, 0.8):
        ks = np.arange(1, 10_001)
        vals = rho_values(H, 10_000)[1:]
        assert np.allclose(vals, [rho(H, -int(k)) for k in ks[:0]] or vals)
        assert rho(H, 7) == rho(H, -7)
        # |rho(k)| <= C k^{2H-2} with C calibrated on [1, 1e4]
        ratios = np.abs(vals) / ks ** (2 * H - 2.0)
        C = ratios.max()
        assert np.all(np.abs(vals) <= C * ks ** (2 * H - 2.0) + 1e-15)
        assert C < 2.0


def test_sigma_iid_cases():
    assert sigma(0.5, 2) == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert sigma(0.5, 3) == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-14)


def test_sigma_divergence_boundary():
    with pytest.raises(DivergenceError):
        sigma(0.75, 2)
    with pytest.raises(DivergenceError):
        BmInstance(5.0 / 6.0, 3, 4)


def test_sigma_q1_raises_typed_error():
    # sum_t rho_H(t) telescopes to 0 below H = 1/2; direct summation left
    # cancellation noise there, or a negative total and a math domain error
    for H in (0.05, 0.1, 0.14, 0.27, 0.49):
        with pytest.raises(BreuerMajorError, match="sigma"):
            sigma(H, 1)
    with pytest.raises(DivergenceError):
        sigma(0.5, 1)


HURST_GRID = np.round(np.arange(0.05, 0.96, 0.05), 2).tolist()


def test_hurwitz_zeta_matches_scipy_at_sigma_horizon():
    # at the exponents s = q(2 - 2H) > 1 of sigma's tail and at s + 2, s + 4
    start = SIGMA_DIRECT_TERMS + 1.0
    for H in HURST_GRID:
        for q in range(1, 7):
            s = q * (2.0 - 2.0 * H)
            for x in (s, s + 2.0, s + 4.0) if s > 1.0 else ():
                want = float(zeta(x, start))
                assert abs(_hurwitz_zeta(x, start) - want) <= 1e-15 * want


def test_sigma_matches_scipy_zeta_tail(monkeypatch):
    grid = [(H, q) for H in HURST_GRID for q in range(2, 7) if H < (2 * q - 1) / (2 * q)]
    ours = [sigma(H, q) for H, q in grid]
    monkeypatch.setattr(breuer_major, "_hurwitz_zeta", lambda s, a: float(zeta(s, a)))
    for (H, q), got in zip(grid, ours):
        assert got == pytest.approx(sigma(H, q), rel=1e-14, abs=0.0)


def test_sigma_tail_acceleration_brackets_direct_sums():
    # q! sigma^2 must sit between every truncated sum and the same sum plus
    # an elementary tail majorant C^q * integral bound; positive-summand
    # cases make the bracket monotone in the horizon.
    for H, q, horizon in ((0.3, 2, 200_000), (0.6, 2, 500_000), (0.7, 2, 2_000_000)):
        partial = 1.0 + 2.0 * np.sum(rho_values(H, horizon)[1:] ** q)
        s = q * (2.0 - 2.0 * H)
        ks = np.arange(1, 1001)
        C = float(np.max(np.abs(rho_values(H, 1000)[1:]) / ks ** (2 * H - 2.0)))
        tail_majorant = 2.0 * C**q * horizon ** (1.0 - s) / (s - 1.0)
        total = math.factorial(q) * sigma(H, q) ** 2
        assert partial <= total <= partial + 1.05 * tail_majorant


def test_bm_instance_validation():
    with pytest.raises(BreuerMajorError):
        BmInstance(0.5, 1, 4)
    with pytest.raises(BreuerMajorError):
        BmInstance(0.5, 2, 0)
    with pytest.raises(DivergenceError):
        BmInstance(0.8, 2, 4)


def test_bm_bound_closed_form_iid():
    for n in (2, 4, 8, 16, 32, 64):
        report = bm_bound_exact(BmInstance(0.5, 2, n))
        assert report.bound == pytest.approx(math.sqrt(2.0 / n), abs=1e-12)
        assert report.variance_term == pytest.approx(0.0, abs=1e-14)


def test_bm_matches_tensor_oracle_q2():
    for H in (0.3, 0.6, 0.7):
        for n in (4, 8, 16, 32, 48):
            inst = BmInstance(H, 2, n)
            direct = bm_bound_exact(inst).squared_total
            oracle = gauss_bound_single(bm_kernel(inst)).squared_total
            assert direct == pytest.approx(oracle, abs=1e-10, rel=1e-10)


def test_bm_matches_tensor_oracle_q3():
    for H in (0.4, 0.7):
        for n in (3, 6, 12):
            inst = BmInstance(H, 3, n)
            direct = bm_bound_exact(inst).squared_total
            oracle = gauss_bound_single(bm_kernel(inst)).squared_total
            assert direct == pytest.approx(oracle, abs=1e-10, rel=1e-10)


def test_bm_variance_term_shrinks():
    for H in (0.3, 0.6):
        terms = [
            bm_bound_exact(BmInstance(H, 2, 2**k)).variance_term
            for k in range(4, 11)
        ]
        assert all(b < a + 1e-14 for a, b in zip(terms[:-1], terms[1:]))
        assert terms[-1] < terms[0]


def test_bm_rate_regimes():
    assert bm_rate(0.3, 2) == (0.5, "n^(-1/2)")
    exponent, regime = bm_rate(0.6, 3)
    assert exponent == pytest.approx(0.4)
    assert regime == "n^(H-1)"
    exponent, regime = bm_rate(0.7, 2)
    assert exponent == pytest.approx(0.1)
    assert regime == "n^(qH-q+1/2)"
    with pytest.raises(BreuerMajorError):
        bm_rate(0.8, 2)


def test_bm_table_rows():
    rows = bm_table(0.5, 2, [2, 8])
    assert [r["kol_bound"] for r in rows] == pytest.approx([1.0, 0.5])
    assert bm_table(0.5, 2, []) == []


def test_bm_table_slope_regression():
    rows = bm_table(0.3, 2, [16, 64, 256])
    slope = np.polyfit(
        np.log([r["n"] for r in rows]), np.log([r["kol_bound"] for r in rows]), 1
    )[0]
    assert abs(slope + 0.5) < 0.1


def test_bm_resource_guard():
    with pytest.raises(ResourceGuardError):
        bm_bound_exact(BmInstance(0.4, 3, 64), op_budget=1000)


def test_bm_resource_guard_counts_complete_graph_sums():
    # at q = 3 the r = 1, a = 1 sum is a complete graph on four indices,
    # n lags of FFT convolutions: the guard counts 1,970,176 ops at n = 64
    # and 92,416 at n = 16, either side of the 8 * 32^3 = 262,144 budget
    with pytest.raises(ResourceGuardError):
        bm_bound_exact(BmInstance(0.4, 3, 64), op_budget=8 * 32**3)
    bm_bound_exact(BmInstance(0.4, 3, 16), op_budget=8 * 32**3)


def test_bm_resource_guard_admits_what_runs_in_seconds():
    # the FFT complete-graph sums make q = 3 at n = 256 about a 4e7-op
    # instance (39,387,136 by the guard's count)
    _check_op_budget(BmInstance(0.6, 3, 256), DEFAULT_OP_BUDGET)
    _check_op_budget(BmInstance(0.7, 2, 2**15), DEFAULT_OP_BUDGET)


def test_bm_resource_guard_covers_q2():
    # the four-cycle walk visits n^2 entries; q = 2 is guarded like every q
    with pytest.raises(ResourceGuardError):
        _check_op_budget(BmInstance(0.7, 2, 2**16), DEFAULT_OP_BUDGET)
    with pytest.raises(ResourceGuardError):
        bm_bound_exact(BmInstance(0.7, 2, 64), op_budget=64**2 - 1)


def _dense_contraction_norms(inst: BmInstance) -> list[float]:
    """||f ~x_r f||^2 from dense n x n matrices of rho^x.

    The deliberate oracle for _contraction_norms: four-cycle sums as
    tr((P_r P_m)^2) through one dense matrix product per r, complete-graph
    sums as six-operand einsum over the four grid indices, O(n^4).
    """
    q, n = inst.q, inst.n
    sig = sigma(inst.H, q)
    r_mat = toeplitz(rho_values(inst.H, n - 1))
    powers = {x: r_mat**x for x in range(1, q)}
    prods = {r: powers[r] @ powers[q - r] for r in range(1, q)}
    out = []
    for r in range(1, q):
        m = q - r
        acc = 2.0 * float(np.einsum("ij,ij->", prods[r], prods[m]))
        for a in range(1, m):
            four_sum = np.einsum("kl,ij,ki,lj,kj,li->", powers[r], powers[r], powers[a],
                                 powers[a], powers[m - a], powers[m - a], optimize=True)
            acc += math.comb(m, a) ** 2 * float(four_sum)
        acc /= math.comb(2 * m, m)
        out.append(acc / (math.factorial(q) ** 4 * sig**4 * n**2))
    return out


def test_bm_contraction_norms_match_dense_oracle():
    for q in (2, 3, 4, 5):
        ns = (1, 2, 3, 7, 16, 33) + ((64, 512) if q == 2 else ())
        for H in (0.3, 0.55, 0.6, 0.7):
            if H >= (2 * q - 1) / (2 * q):
                continue
            for n in ns:
                inst = BmInstance(H, q, n)
                fast = _contraction_norms(inst, sigma(H, q), DEFAULT_OP_BUDGET)
                dense = _dense_contraction_norms(inst)
                assert fast == pytest.approx(dense, rel=1e-12, abs=0.0), (q, H, n)


TOEPLITZ_NS = tuple(range(1, 70)) + (127, 128, 255, 256, 512, 1000, 1024, 2048, 4096,
                                      4097, 8192)


@pytest.mark.parametrize("H", [0.3, 0.45, 0.6, 0.7, 0.75])
def test_toeplitz_helpers_match_scipy_oracle(H):
    # scipy.linalg is the documented oracle of the numpy Toeplitz helpers;
    # the FFT product may differ from it in the last bits under another
    # numpy, so agreement is normwise to 1e-14.  Dense matrices stop at
    # n = 1024 to keep memory small.
    for n in TOEPLITZ_NS:
        base = rho_values(H, n - 1)
        if n <= 1024:
            np.testing.assert_array_equal(_toeplitz(base), toeplitz(base))
        for c, x in ((base, base), (base, base**2), (base**2, base**3)):
            got, want = _toeplitz_product(c, x), matmul_toeplitz((c, c), x)
            assert got.shape == want.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (H, n)


@pytest.mark.parametrize("q, n", [(3, 1024), (4, 256)])
def test_bm_contraction_norms_iid_at_scale(q, n):
    # at H = 1/2 every P_x is the identity, so each four-index sum is n and
    # every ||f ~x_r f||^2 is 1 / (q!^2 n); the default budget admits both
    fast = _contraction_norms(BmInstance(0.5, q, n), sigma(0.5, q), DEFAULT_OP_BUDGET)
    expected = 1.0 / (math.factorial(q) ** 2 * n)
    assert fast == pytest.approx([expected] * (q - 1), rel=1e-12, abs=0.0)


def test_complete_graph_memory_below_one_dense_matrix():
    n = 1024
    base = rho_values(0.6, n - 1)
    tracemalloc.start()
    try:
        _complete_graph(n, base, base**2, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_bm_bound_memory_below_one_dense_matrix():
    n = 4096
    tracemalloc.start()
    try:
        bm_bound_exact(BmInstance(0.7, 2, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_quadratic_variant_normalization():
    # sigma_H = 2 sigma and (x^2-1) = 2 H_2(x): the two Z_n forms coincide
    H = 0.62
    assert sigma_quadratic(H) == pytest.approx(2.0 * sigma(H, 2), abs=1e-12)
    n = 16
    inc = sample_fbm_increments(H, n, 100, seed=9).values
    z_hermite = np.asarray(hermite(2, inc)).sum(axis=1) / (sigma(H, 2) * math.sqrt(n))
    z_quadratic = (inc**2 - 1.0).sum(axis=1) / (sigma_quadratic(H) * math.sqrt(n))
    assert np.allclose(z_hermite, z_quadratic, atol=1e-12)


def test_sigma_sums_once_per_pair(monkeypatch):
    # a table row and the sampler ask for the same sigma; the sum runs once
    breuer_major._sigma.cache_clear()
    calls = []
    real = breuer_major.rho_values

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(breuer_major, "rho_values", counting)
    values = [sigma(0.65, 3) for _ in range(3)]
    assert values == [values[0]] * 3
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(DivergenceError):
            sigma(0.9, 3)


def test_sigma_at_half_is_pinned():
    # rho_{1/2}(t) = 0 for t != 0, so the tail is 0.0 times finite Hurwitz
    # zeta values and sigma(1/2, q) = sqrt(1/q!); values of the code that
    # returned the zero tail outright
    assert [breuer_major._rho_tail(0.5, q, 1000) for q in range(2, 7)] == [0.0] * 5
    assert [sigma(0.5, q) for q in range(2, 7)] == [
        0.7071067811865476, 0.408248290463863, 0.2041241452319315, 0.09128709291752768,
        0.037267799624996496]
