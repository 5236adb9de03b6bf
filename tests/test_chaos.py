import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import derivative_norm_poly, random_gram, random_kernel
from steinchaos import wick
from steinchaos.chaos import (
    ChaosError,
    ChaosVector,
    ComplexityError,
    derivative_norm_sq,
    exact_moment,
    hermite,
    malliavin_inner,
    multiply,
    ou_semigroup,
    product,
)
from steinchaos.tensors import GramSpace, contract, gram_inner, symmetrize, tensor_power

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


@pytest.fixture
def plane():
    return GramSpace.standard(2)


def single(kernel):
    return ChaosVector.single(kernel)


# ----------------------------------------------------------------------
# hermite
# ----------------------------------------------------------------------


def test_hermite_values():
    assert hermite(2, 2.0) == pytest.approx(1.5)
    assert hermite(3, 1.0) == pytest.approx(-1.0 / 3.0)
    assert hermite(0, 7.3) == 1.0


def test_hermite_negative_order():
    with pytest.raises(ChaosError):
        hermite(-1, 0.0)


def test_hermite_vectorized():
    xs = np.linspace(-3, 3, 7)
    assert np.allclose(hermite(2, xs), (xs**2 - 1) / 2)


def _reference_monic_hermite(q, x):
    """He_q(x) by the out-of-place three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if q == 0:
        return prev
    cur = x.copy()
    for n in range(1, q):
        prev, cur = cur, x * cur - n * prev
    return cur


def test_hermite_in_place_recurrence_is_bit_identical():
    rng = np.random.default_rng(5)
    inputs = [rng.normal(size=(40, 9)) * 3, rng.normal(size=(30, 8))[:, 2], 1.7, np.array(-0.4)]
    for x in inputs:
        before = np.array(x, copy=True)
        for q in range(7):
            expected = _reference_monic_hermite(q, x) / math.factorial(q)
            got = hermite(q, x)
            assert np.array_equal(got, expected)
            assert np.shape(got) == np.shape(expected)
        assert np.array_equal(x, before)  # the input is only read


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def test_eval_second_chaos_diagonal(plane):
    F = single(tensor_power(plane, E1, 2))
    assert F.eval(np.array([2.0, 5.0])) == pytest.approx(3.0)  # x^2 - 1


def test_eval_off_diagonal(plane):
    F = single(symmetrize(plane, np.outer(E1, E2)))
    assert F.eval(np.array([1.3, -0.7])) == pytest.approx(1.3 * -0.7)


def test_eval_third_chaos():
    space = GramSpace.standard(1)
    F = single(tensor_power(space, np.array([1.0]), 3))
    x = 0.8
    assert F.eval(np.array([x])) == pytest.approx(x**3 - 3 * x)


def test_eval_dimension_mismatch(plane):
    F = single(tensor_power(plane, E1, 2))
    with pytest.raises(ChaosError):
        F.eval(np.array([1.0, 2.0, 3.0]))


def test_eval_general_gram_isometry():
    # var of X(e1) must equal G[0,0] when evaluated in the orthonormal frame
    rng = np.random.default_rng(5)
    space = random_gram(3, rng)
    F = single(tensor_power(space, np.array([1.0, 0.0, 0.0]), 1))
    assert exact_moment(F, 2) == pytest.approx(space.gram[0, 0], rel=1e-12)


def test_general_gram_second_chaos_isometry():
    # E[I_2(f)^2] = 2 <f, f>_G through the Cholesky-orthonormalized frame
    for seed in range(8):
        rng = np.random.default_rng(60 + seed)
        space = random_gram(3, rng)
        f = random_kernel(space, 2, rng)
        F = single(f)
        assert exact_moment(F, 2) == pytest.approx(2.0 * gram_inner(f, f), rel=1e-10)
        xi = rng.standard_normal((50_000, 3))
        vals = F.eval(xi)
        se = float(np.std(vals**2) / math.sqrt(len(vals)))
        assert float(np.mean(vals**2)) == pytest.approx(
            2.0 * gram_inner(f, f), abs=4 * se
        )


# ----------------------------------------------------------------------
# exact moments
# ----------------------------------------------------------------------


def test_exact_moment_examples(plane):
    F = single(tensor_power(plane, E1, 2))
    assert exact_moment(F, 2) == pytest.approx(2.0)
    assert exact_moment(F, 3) == pytest.approx(8.0)
    G = single(tensor_power(plane, E1, 1))
    assert exact_moment(G, 4) == pytest.approx(3.0)


def test_exact_moment_guard(plane):
    F = single(tensor_power(plane, E1, 2))
    with pytest.raises(ComplexityError):
        exact_moment(F, 9)


def test_exact_moment_guard_counts_dimension():
    # q * s = 16 passes the degree guard, but at d = 7 the moment matrix has
    # C(15, 7)^2 ~ 4.1e7 entries, above WICK_TERM_GUARD = 1e7
    space = GramSpace.standard(7)
    F = single(random_kernel(space, 4, np.random.default_rng(3)))
    started = time.perf_counter()
    with pytest.raises(ComplexityError, match="dimension 7"):
        exact_moment(F, 4)
    assert time.perf_counter() - started < 1.0


def test_exact_moment_matches_monte_carlo(plane):
    rng = np.random.default_rng(17)
    f = random_kernel(plane, 2, rng)
    F = single(f)
    xi = rng.standard_normal((200_000, 2))
    vals = F.eval(xi)
    m2 = exact_moment(F, 2)
    assert np.mean(vals**2) == pytest.approx(m2, abs=4 * np.std(vals**2) / np.sqrt(len(vals)))


def _fourth_cumulant(f):
    """kappa_4(I_q f) = (3/q) sum_{r=1}^{q-1} r r!^2 C(q,r)^4 (2q-2r)! ||f ~x_r f||^2
    (Nourdin-Peccati), from the contraction code alone."""
    q = f.order
    total = 0.0
    for r in range(1, q):
        g = symmetrize(f.space, contract(f, f, r))
        weight = r * math.factorial(r) ** 2 * math.comb(q, r) ** 4 * math.factorial(2 * q - 2 * r)
        total += weight * gram_inner(g, g)
    return 3.0 / q * total


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_fourth_moment_matches_contraction_formula(q, d):
    # E[F^4] = kappa_4 + 3 m_2^2; d = 6 at q = 4 is the largest case the guard admits
    rng = np.random.default_rng(100 * q + d)
    f = random_kernel(random_gram(d, rng), q, rng)
    m2 = math.factorial(q) * gram_inner(f, f)
    expected = _fourth_cumulant(f) + 3.0 * m2**2
    assert exact_moment(single(f), 4) == pytest.approx(expected, rel=1e-12)


def test_power_expectation_matches_dict_oracle():
    rng = np.random.default_rng(23)
    space = random_gram(3, rng)
    for orders in ((1, 2), (2, 3)):
        F = ChaosVector.build(space, 0.7, [random_kernel(space, q, rng) for q in orders])
        p = F.to_polynomial()
        for s in range(6):
            oracle = wick.poly_gaussian_expectation(wick.poly_pow(p, s))
            assert wick.poly_power_expectation(p, s) == pytest.approx(oracle, rel=1e-12)


def test_odd_moments_of_odd_chaos_are_exactly_zero():
    rng = np.random.default_rng(29)
    space = random_gram(4, rng)
    F = ChaosVector.build(space, 0.0, [random_kernel(space, q, rng) for q in (1, 3)])
    for s in (1, 3, 5):
        assert exact_moment(F, s) == 0.0
    assert exact_moment(F, 4) > 0.0


def test_exact_moment_at_guard_reach_is_fast_and_small():
    # d = 6, q = 4, s = 4: the guard counts C(14, 6)^2 ~ 9.0e6 moment-matrix
    # entries, just under WICK_TERM_GUARD; the matrix is built in row blocks
    rng = np.random.default_rng(31)
    F = single(random_kernel(random_gram(6, rng), 4, rng))
    tracemalloc.start()
    try:
        started = time.perf_counter()
        value = exact_moment(F, 4)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value) and value > 0.0
    assert elapsed < 1.0
    assert peak < 48 * 2**20


# ----------------------------------------------------------------------
# multiplication
# ----------------------------------------------------------------------


def test_multiply_first_chaos_square(plane):
    F = single(tensor_power(plane, E1, 1))
    out = multiply(F, F)
    assert out.constant == pytest.approx(1.0)
    assert [k.order for k in out.terms] == [2]
    assert out.terms[0].coeffs == {(0, 0): 1.0}


def test_multiply_orthogonal_first_chaoses(plane):
    F = single(tensor_power(plane, E1, 1))
    G = single(tensor_power(plane, E2, 1))
    out = multiply(F, G)
    assert out.constant == 0.0
    assert [k.order for k in out.terms] == [2]
    assert out.terms[0].coeffs == {(0, 1): 1.0}


def test_multiply_second_chaos_square(plane):
    f = tensor_power(plane, E1, 2)
    out = multiply(single(f), single(f))
    assert out.constant == pytest.approx(2.0)  # E F^2
    by_order = {k.order: k for k in out.terms}
    assert by_order[2].coeffs == {(0, 0): 4.0}  # 4 I_2(f x_1 f)
    assert by_order[4].coeffs == {(0, 0, 0, 0): 1.0}  # I_4(f x f)


def test_multiply_requires_single_chaos(plane):
    f = tensor_power(plane, E1, 2)
    F = ChaosVector.build(plane, 1.0, [f])
    with pytest.raises(ChaosError):
        multiply(F, single(f))


def test_product_distributes(plane):
    rng = np.random.default_rng(23)
    f = random_kernel(plane, 2, rng)
    g = random_kernel(plane, 3, rng)
    F = ChaosVector.build(plane, 0.7, [f])
    G = ChaosVector.build(plane, -0.2, [g])
    got = product(F, G)
    xi = rng.standard_normal((4, 2))
    assert np.allclose(got.eval(xi), F.eval(xi) * G.eval(xi), atol=1e-10)


def test_isometry_orthogonality_invariant():
    # E[I_q(f) I_p(g)] = delta_pq q! <f, g>
    for seed in range(25):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(2, 5))
        space = random_gram(d, rng) if seed % 2 else GramSpace.standard(d)
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f = random_kernel(space, q, rng)
        g = random_kernel(space, p, rng)
        prod = multiply(single(f), single(g))
        got = exact_moment(prod, 1)
        expected = math.factorial(q) * gram_inner(f, g) if p == q else 0.0
        assert got == pytest.approx(expected, abs=1e-10)


# ----------------------------------------------------------------------
# malliavin_inner / derivative_norm_sq
# ----------------------------------------------------------------------


def test_malliavin_inner_second_chaos(plane):
    F = single(tensor_power(plane, E1, 2))
    w = malliavin_inner(F)
    assert w.constant == pytest.approx(2.0)
    assert len(w.terms) == 1
    assert w.terms[0].coeffs == {(0, 0): 2.0}
    # pathwise: 2 + 2(x^2 - 1) = 2 x^2 = ||DF||^2 / 2
    xs = np.array([[0.3, 0.0], [1.7, 0.0]])
    assert np.allclose(w.eval(xs), 2 * xs[:, 0] ** 2)


def test_malliavin_inner_first_chaos(plane):
    F = single(tensor_power(plane, E1, 1))
    w = malliavin_inner(F)
    assert w.constant == pytest.approx(1.0)
    assert w.terms == ()


def test_malliavin_inner_requires_centered(plane):
    F = ChaosVector.build(plane, 1.0, [tensor_power(plane, E1, 2)])
    with pytest.raises(ChaosError):
        malliavin_inner(F)


def test_malliavin_inner_mean_is_variance():
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        space = GramSpace.standard(3)
        f2 = random_kernel(space, 2, rng)
        f3 = random_kernel(space, 3, rng)
        F = ChaosVector.build(space, 0.0, [f2, f3])
        w = malliavin_inner(F)
        assert w.constant == pytest.approx(F.second_moment(), rel=1e-12)
        assert w.constant == pytest.approx(exact_moment(F, 2), rel=1e-10)


def test_malliavin_inner_single_vs_derivative_norm(plane):
    # Mehler consistency: <DF, -DL^{-1}F> = q^{-1}||DF||^2 entrywise
    rng = np.random.default_rng(7)
    for q in (2, 3):
        f = random_kernel(plane, q, rng)
        F = single(f)
        w = malliavin_inner(F)
        dn = derivative_norm_sq(F)
        assert w.constant == pytest.approx(dn.constant / q, abs=1e-12)
        for kern in dn.terms:
            other = w.kernel_of_order(kern.order)
            for idx, val in kern.coeffs.items():
                assert other.coeffs.get(idx, 0.0) == pytest.approx(
                    val / q, abs=1e-12
                )


def test_mehler_semigroup_weight():
    # int_0^inf e^{-z} e^{-(q-1) z} dz = 1/q, the scaling behind the
    # inverse-generator representation of the semigroup average
    for q in (1, 2, 3, 4):
        val = quad(lambda z, q=q: math.exp(-z) * math.exp(-(q - 1) * z), 0, np.inf)[0]
        assert val == pytest.approx(1.0 / q, rel=1e-10)


def test_ou_semigroup_scales_kernels(plane):
    f = tensor_power(plane, E1, 2)
    F = ChaosVector.build(plane, 3.5, [f])
    assert ou_semigroup(F, 0.0).terms[0].coeffs == f.coeffs
    scaled = ou_semigroup(F, math.log(2.0))
    assert scaled.terms[0].coeffs[(0, 0)] == pytest.approx(0.25)
    assert scaled.constant == 3.5
    with pytest.raises(ChaosError):
        ou_semigroup(F, -0.1)


def test_ou_semigroup_constant_only(plane):
    F = ChaosVector.build(plane, 2.0)
    assert ou_semigroup(F, 1.0).constant == 2.0


# ----------------------------------------------------------------------
# moment identities
# ----------------------------------------------------------------------


def test_moment_identity_fs_df() :
    # E(F^s ||DF||^2) = q/(s+1) E(F^{s+2}) for F = I_q(f)
    for seed in range(12):
        rng = np.random.default_rng(700 + seed)
        space = GramSpace.standard(3)
        q = 2 if seed % 2 == 0 else 3
        f = random_kernel(space, q, rng)
        F = single(f)
        pf = F.to_polynomial()
        dn = derivative_norm_poly(F)
        for s in range(4):
            if q * (s + 2) > 16:
                continue
            lhs = wick.poly_gaussian_expectation(
                wick.poly_mul(wick.poly_pow(pf, s), dn)
            )
            rhs = q / (s + 1) * exact_moment(F, s + 2)
            assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


def test_second_chaos_derivative_fourth_moment():
    # E ||DF||^4 = (2/3) E F^4 + 2 (E F^2)^2 for second chaos
    for seed in range(12):
        rng = np.random.default_rng(900 + seed)
        space = GramSpace.standard(3)
        f = random_kernel(space, 2, rng)
        F = single(f)
        dn = derivative_norm_poly(F)
        lhs = wick.poly_gaussian_expectation(wick.poly_mul(dn, dn))
        rhs = 2.0 / 3.0 * exact_moment(F, 4) + 2.0 * exact_moment(F, 2) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


def test_weak_positivity_monte_carlo():
    # E[<DF, -DL^{-1}F> g(F)] >= 0 for g >= 0 (checked to MC resolution)
    rng = np.random.default_rng(42)
    space = GramSpace.standard(3)
    f = random_kernel(space, 2, rng)
    F = ChaosVector.single(f)
    w = malliavin_inner(F)
    xi = rng.standard_normal((100_000, 3))
    fv = F.eval(xi)
    wv = w.eval(xi)
    for g in (lambda x: np.ones_like(x), lambda x: 1 + np.tanh(x), lambda x: np.exp(-(x**2))):
        vals = wv * g(fv)
        mean = float(np.mean(vals))
        se = float(np.std(vals) / math.sqrt(len(vals)))
        assert mean >= -1e-8 - 3 * se


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_chaos_vector_json_round_trip(plane):
    rng = np.random.default_rng(31)
    F = ChaosVector.build(
        plane, 0.4, [random_kernel(plane, 2, rng), random_kernel(plane, 3, rng)]
    )
    obj = F.to_json_obj()
    assert set(obj) == {"constant", "terms"}
    restored = ChaosVector.from_json_obj(obj, plane)
    assert restored.constant == F.constant
    for a, b in zip(restored.terms, F.terms):
        assert a.coeffs == b.coeffs
