import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import derivative_norm_poly, random_gram, random_kernel, rank_two_gram
from steinchaos import wick
from steinchaos._toeplitz import _toeplitz
from steinchaos.bounds import (
    BoundError,
    _pair_coeff,
    _toeplitz_gamma_bound,
    chi2_double_bound,
    gamma_bound_single,
    gamma_bound_sum,
    gauss_bound_single,
    gauss_bound_sum,
    midpoint_constant,
    second_chaos_exact_squared,
    second_chaos_gamma_exact_squared,
    second_chaos_gauss_bound,
    second_chaos_gamma_bound,
    stein_constants,
)
from steinchaos.chaos import ChaosVector, derivative_norm_sq, exact_moment, malliavin_inner
from steinchaos.cli import _chi2_sequence
from steinchaos.tensors import (
    GramSpace,
    SpaceMismatchError,
    SymKernel,
    contract,
    gram_inner,
    raw_norm_sq,
    symmetrize,
    tensor_power,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


@pytest.fixture
def plane():
    return GramSpace.standard(2)


# ----------------------------------------------------------------------
# Gaussian single-chaos bound
# ----------------------------------------------------------------------


def test_gauss_single_normalized_rank_one(plane):
    f = (1.0 / math.sqrt(2.0)) * tensor_power(plane, E1, 2)
    report = gauss_bound_single(f, "total-variation")
    assert report.squared_total == pytest.approx(2.0, abs=1e-12)
    assert report.bound == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert report.metric_constant == 2.0
    # oracle: E F^4 = 15 for this kernel, and (int) gives the same total
    F = ChaosVector.single(f)
    assert exact_moment(F, 4) == pytest.approx(15.0, abs=1e-10)


def test_gauss_single_two_point(plane):
    f = 0.5 * (tensor_power(plane, E1, 2) + tensor_power(plane, E2, 2))
    report = gauss_bound_single(f, "kolmogorov")
    assert report.variance_term == pytest.approx(0.0, abs=1e-14)
    assert dict(report.contraction_terms)[1] == pytest.approx(1.0, abs=1e-12)
    assert report.bound == pytest.approx(1.0, abs=1e-12)
    assert exact_moment(ChaosVector.single(f), 4) == pytest.approx(9.0, abs=1e-10)


def test_gauss_single_zero_kernel(plane):
    report = gauss_bound_single(SymKernel.zero(plane, 2), "kolmogorov")
    assert report.variance_term == 1.0
    assert report.squared_total == 1.0
    assert report.bound == 1.0


def test_gauss_single_rejects_first_chaos(plane):
    with pytest.raises(BoundError):
        gauss_bound_single(tensor_power(plane, E1, 1))


def test_gauss_single_metric_constants(plane):
    f = 0.3 * tensor_power(plane, E1, 2)
    by_metric = {
        m: gauss_bound_single(f, m).bound
        for m in ("kolmogorov", "wasserstein", "total-variation", "fortet-mourier")
    }
    root = math.sqrt(gauss_bound_single(f).squared_total)
    assert by_metric["kolmogorov"] == pytest.approx(root)
    assert by_metric["wasserstein"] == pytest.approx(root)
    assert by_metric["total-variation"] == pytest.approx(2 * root)
    assert by_metric["fortet-mourier"] == pytest.approx(4 * root)


def test_gauss_single_oracle_equality():
    # squared_total (symmetrized) = E[(1 - q^{-1}||DF||^2)^2] by Wick
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(2, 4))
        space = GramSpace.standard(d)
        q = 2 if seed % 2 == 0 else 3
        f = random_kernel(space, q, rng)
        report = gauss_bound_single(f)
        F = ChaosVector.single(f)
        dn = derivative_norm_poly(F)
        expr = wick.poly_add(wick.poly_const(d, 1.0), wick.poly_scale(dn, -1.0 / q))
        oracle = wick.poly_gaussian_expectation(wick.poly_pow(expr, 2))
        assert report.squared_total == pytest.approx(oracle, abs=1e-10)
        assert report.unsym_squared_total >= report.squared_total - 1e-12


# ----------------------------------------------------------------------
# Gaussian bound for sums
# ----------------------------------------------------------------------


def test_gauss_sum_single_term_example(plane):
    f = (1.0 / math.sqrt(2.0)) * tensor_power(plane, E1, 2)
    report = gauss_bound_sum([f])
    assert report.squared_total == pytest.approx(4.0, abs=1e-12)


def test_gauss_sum_zero_kernels(plane):
    report = gauss_bound_sum([SymKernel.zero(plane, 2), SymKernel.zero(plane, 3)])
    assert report.squared_total == pytest.approx(2.0)


def test_gauss_sum_dominates_exact():
    for seed in range(10):
        rng = np.random.default_rng(1500 + seed)
        space = GramSpace.standard(3)
        f2 = random_kernel(space, 2, rng, scale=0.5)
        f3 = random_kernel(space, 3, rng, scale=0.4)
        report = gauss_bound_sum([f2, f3])
        Z = ChaosVector.build(space, 0.0, [f2, f3])
        w = malliavin_inner(Z)
        one_minus = ChaosVector.build(space, 1.0) - w
        exact = exact_moment(one_minus, 2)
        assert report.squared_total >= exact - 1e-10


def test_gauss_sum_rejects_duplicate_orders(plane):
    f = tensor_power(plane, E1, 2)
    with pytest.raises(BoundError):
        gauss_bound_sum([f, f])


def test_gauss_sum_rejects_mixed_spaces():
    # an I_2 kernel over R^3 and an I_3 kernel over R^4 are not one chaos sum
    rng = np.random.default_rng(0)
    f2 = random_kernel(GramSpace.standard(3), 2, rng)
    f3 = random_kernel(GramSpace.standard(4), 3, rng)
    with pytest.raises(SpaceMismatchError):
        gauss_bound_sum([f2, f3])


# ----------------------------------------------------------------------
# moment-only bounds and exact identities
# ----------------------------------------------------------------------


def test_second_chaos_gauss_bound_values():
    assert second_chaos_gauss_bound(1.0, 3.0) == 0.0
    assert second_chaos_gauss_bound(1.0, 3.6) == pytest.approx(2 * math.sqrt(0.1))
    assert second_chaos_gauss_bound(1.1, 3.6) == pytest.approx(
        2 * math.sqrt(0.1 + 2.05 * 0.1)
    )
    with pytest.raises(BoundError):
        second_chaos_gauss_bound(0.0, 3.0)


def test_second_chaos_gamma_bound_values():
    assert second_chaos_gamma_bound(1.0, 2.0, 8.0, 60.0) == pytest.approx(0.0, abs=1e-12)
    assert second_chaos_gamma_bound(2.0, 4.0, 16.0, 144.0) == pytest.approx(0.0, abs=1e-12)
    assert second_chaos_gamma_bound(1.0, 2.0, 8.0, 66.0) == pytest.approx(2.0)
    with pytest.raises(BoundError):
        second_chaos_gamma_bound(-1.0, 2.0, 8.0, 60.0)


def test_moment_identity_matches_gauss_single():
    # (int): E[(1 - ||DF||^2/2)^2] from moments alone equals squared_total
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        space = GramSpace.standard(3)
        f = random_kernel(space, 2, rng)
        F = ChaosVector.single(f)
        m2 = exact_moment(F, 2)
        m4 = exact_moment(F, 4)
        report = gauss_bound_single(f)
        assert second_chaos_exact_squared(m2, m4) == pytest.approx(
            report.squared_total, abs=1e-10
        )
        # the moment-only bound dominates the exact root
        assert second_chaos_gauss_bound(m2, m4) >= 2 * math.sqrt(
            max(report.squared_total, 0.0)
        ) - 1e-10


def test_gamma_identity_matches_gamma_single():
    # (int2): moments identity equals gamma squared_total at q = 2
    for seed in range(20):
        rng = np.random.default_rng(2100 + seed)
        space = GramSpace.standard(3)
        g = random_kernel(space, 2, rng)
        nu = float(rng.uniform(0.3, 3.0))
        G = ChaosVector.single(g)
        m2, m3, m4 = (exact_moment(G, k) for k in (2, 3, 4))
        report = gamma_bound_single(g, nu, "h2")
        assert second_chaos_gamma_exact_squared(nu, m2, m3, m4) == pytest.approx(
            report.squared_total, abs=1e-10
        )


# ----------------------------------------------------------------------
# Gamma bounds
# ----------------------------------------------------------------------


def test_gamma_single_exact_chi2(plane):
    report = gamma_bound_single(tensor_power(plane, E1, 2), 1.0)
    assert report.squared_total == pytest.approx(0.0, abs=1e-12)
    assert report.bound == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("metric", ["h1", "h2"])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 512])
def test_toeplitz_gamma_bound_matches_dense_oracle(n, metric):
    # the chi2-example kernel a(k - l)/n and a random symmetric Toeplitz
    # kernel, against gamma_bound_single on the dense n x n kernel
    columns = [_chi2_sequence(np.arange(n)) / n,
               np.random.default_rng(n).uniform(-1.0, 1.0, n) / n]
    for c in columns:
        got = _toeplitz_gamma_bound(c, 1.0, metric)
        want = gamma_bound_single(SymKernel.from_dense(GramSpace.standard(n), _toeplitz(c)),
                                  1.0, metric)
        assert (got.metric, got.metric_constant) == (want.metric, want.metric_constant)
        assert [r for r, _ in got.contraction_terms] == [r for r, _ in want.contraction_terms]
        for field in ("variance_term", "squared_total", "bound"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12), field
        assert got.contraction_terms[0][1] == pytest.approx(want.contraction_terms[0][1],
                                                            rel=1e-12)


def test_toeplitz_gamma_bound_at_n_1_is_exactly_zero():
    # M = [[1]] is the chi^2 kernel itself: M^2 = M and 2 ||M||^2 = 2 nu
    report = _toeplitz_gamma_bound(_chi2_sequence(np.arange(1)), 1.0, "h1")
    assert (report.variance_term, report.squared_total, report.bound) == (0.0, 0.0, 0.0)


def test_toeplitz_gamma_bound_checks_like_gamma_single():
    with pytest.raises(BoundError, match="nu"):
        _toeplitz_gamma_bound(np.ones(3), math.nan, "h2")
    with pytest.raises(BoundError, match="integer nu"):
        _toeplitz_gamma_bound(np.ones(3), 1.5, "h1")
    with pytest.raises(BoundError, match="unknown metric"):
        _toeplitz_gamma_bound(np.ones(3), 1.0, "h3")


def test_gamma_single_two_point(plane):
    g = (1.0 / math.sqrt(2.0)) * (
        tensor_power(plane, E1, 2) + tensor_power(plane, E2, 2)
    )
    report = gamma_bound_single(g, 1.0, "h2")
    assert report.squared_total == pytest.approx(8 * (1 - 1 / math.sqrt(2)) ** 2, rel=1e-10)
    assert report.metric_constant == 3.0
    assert report.bound == pytest.approx(3 * math.sqrt(report.squared_total))


def test_gamma_single_zero_kernel(plane):
    report = gamma_bound_single(SymKernel.zero(plane, 2), 1.0, "h2")
    assert report.squared_total == pytest.approx(4.0)
    assert report.bound == pytest.approx(6.0)


def test_gamma_single_rejects_odd_order():
    space = GramSpace.standard(2)
    with pytest.raises(BoundError):
        gamma_bound_single(tensor_power(space, E1, 3), 1.0)


def test_gamma_single_h1_requires_integer_nu(plane):
    g = tensor_power(plane, E1, 2)
    with pytest.raises(BoundError):
        gamma_bound_single(g, 0.5, "h1")
    assert gamma_bound_single(g, 1.0, "h1").metric == "h1"


@pytest.mark.parametrize("nu", [math.nan, math.inf, -1.0])
def test_nu_must_be_finite_and_positive(plane, nu):
    g, h = tensor_power(plane, E1, 2), tensor_power(plane, E2, 6)
    calls = [lambda: stein_constants(nu), lambda: gamma_bound_single(g, nu),
             lambda: gamma_bound_sum(g, nu, h, 1.0), lambda: gamma_bound_sum(g, 1.0, h, nu),
             lambda: second_chaos_gamma_bound(nu, 2.0, 8.0, 60.0)]
    for call in calls:
        with pytest.raises(BoundError, match="finite positive"):
            call()


def test_midpoint_constant():
    assert midpoint_constant(2) == pytest.approx(1.0)
    assert midpoint_constant(4) == pytest.approx(1.0 / (2 * 9))
    # the two printed forms agree: 4/((q/2)! binom(q, q/2)^2)
    for q in (2, 4, 6):
        half = q // 2
        alt = 4.0 / (math.factorial(half) * math.comb(q, half) ** 2)
        assert midpoint_constant(q) == pytest.approx(alt)


def test_gamma_single_dominates_exact():
    for seed in range(10):
        rng = np.random.default_rng(2200 + seed)
        space = GramSpace.standard(2)
        g = random_kernel(space, 4, rng, scale=0.6)
        nu = 1.0
        report = gamma_bound_single(g, nu, "h2")
        G = ChaosVector.single(g)
        target = (
            ChaosVector.build(space, 2.0 * nu)
            + 2.0 * G
            - malliavin_inner(G)
        )
        exact = exact_moment(target, 2)
        assert report.squared_total >= exact - 1e-10


def test_gamma_sum_vanishing_example():
    space = GramSpace.standard(2)
    f1 = tensor_power(space, E1, 2)
    f2 = SymKernel.zero(space, 6)
    report = gamma_bound_sum(f1, 0.5, f2, 0.5)
    assert report.squared_total == pytest.approx(0.0, abs=1e-12)


def test_gamma_sum_zero_kernels():
    space = GramSpace.standard(2)
    report = gamma_bound_sum(SymKernel.zero(space, 2), 0.5, SymKernel.zero(space, 6), 0.5)
    assert report.squared_total == pytest.approx(12.0)


def test_gamma_sum_order_preconditions():
    space = GramSpace.standard(2)
    k2 = tensor_power(space, E1, 2)
    k4 = SymKernel.zero(space, 4)
    k3 = SymKernel.zero(space, 3)
    with pytest.raises(BoundError):
        gamma_bound_sum(k2, 0.5, k4, 0.5)  # q2 = 2 q1 not allowed
    with pytest.raises(BoundError):
        gamma_bound_sum(k2, 0.5, k3, 0.5)  # odd order
    with pytest.raises(BoundError):
        gamma_bound_sum(k2, -0.5, SymKernel.zero(space, 6), 0.5)


def test_gamma_sum_rejects_mixed_spaces():
    rng = np.random.default_rng(0)
    f2 = random_kernel(GramSpace.standard(3), 2, rng)
    f6 = random_kernel(GramSpace.standard(4), 6, rng)
    with pytest.raises(SpaceMismatchError):
        gamma_bound_sum(f2, 0.5, f6, 0.5)


def test_gamma_sum_dominates_exact():
    for seed in range(6):
        rng = np.random.default_rng(2300 + seed)
        space = GramSpace.standard(2)
        f1 = random_kernel(space, 2, rng, scale=0.7)
        f2 = random_kernel(space, 6, rng, scale=0.3)
        nu1, nu2 = 0.6, 0.4
        report = gamma_bound_sum(f1, nu1, f2, nu2)
        Z = ChaosVector.build(space, 0.0, [f1, f2])
        target = (
            ChaosVector.build(space, 2.0)
            + 2.0 * Z
            - malliavin_inner(Z)
        )
        # E[target^2] exactly by chaos orthogonality (degree 12 > Wick guard)
        exact = target.second_moment()
        assert report.squared_total >= exact - 1e-10


# ----------------------------------------------------------------------
# shared coefficient and the sum bounds against the closed-form oracle
# ----------------------------------------------------------------------


def test_pair_coeff_is_the_single_chaos_closed_form():
    for q in range(1, 9):
        for r in range(1, q + 1):
            closed = (
                q**2
                * math.factorial(2 * q - 2 * r)
                * math.factorial(r - 1) ** 2
                * math.comb(q - 1, r - 1) ** 4
            )
            coeff = _pair_coeff(q, q, r)
            assert type(coeff) is int
            assert coeff == closed, (q, r)


def _sum_bound_oracle(kernels, prefactor, skip):
    """{r: contraction term} of the sum bounds, written out the long way.

    The deliberate oracle for bounds._cross_terms: every raw contraction
    norm ||f x_k f|| for k = 0, ..., q-1 is formed from its tensor, the
    tensor product f x_0 f included, and the coefficient is the closed form
    q_i^2 (r-1)!^2 binom(q_i-1, r-1)^2 binom(q_j-1, r-1)^2 (q_i+q_j-2r)!.
    """
    norms = [
        [math.sqrt(max(raw_norm_sq(f.space, contract(f, f, k)), 0.0)) for k in range(f.order)]
        for f in kernels
    ]
    per_r = {}
    for i, f in enumerate(kernels):
        for j, g in enumerate(kernels):
            qi, qj = f.order, g.order
            for r in range(1, min(qi, qj) + 1):
                if i == j and skip(qi, r):
                    continue
                coeff = (
                    qi**2
                    * math.factorial(r - 1) ** 2
                    * math.comb(qi - 1, r - 1) ** 2
                    * math.comb(qj - 1, r - 1) ** 2
                    * math.factorial(qi + qj - 2 * r)
                )
                value = prefactor * coeff * norms[i][qi - r] * norms[j][qj - r]
                per_r[r] = per_r.get(r, 0.0) + value
    return per_r


def _assert_report_matches(report, variance, per_r):
    assert report.variance_term == pytest.approx(variance, rel=1e-12, abs=0.0)
    assert [r for r, _ in report.contraction_terms] == sorted(per_r)
    for r, value in report.contraction_terms:
        assert value == pytest.approx(per_r[r], rel=1e-12, abs=0.0), r
    total = variance + sum(per_r.values())
    assert report.squared_total == pytest.approx(total, rel=1e-12, abs=0.0)


def _sum_spaces(rng):
    return [GramSpace.standard(2), GramSpace.standard(3), random_gram(2, rng), random_gram(3, rng)]


def test_gauss_sum_matches_oracle():
    rng = np.random.default_rng(2400)
    for space in _sum_spaces(rng):
        for orders in ((2, 3), (4, 2), (2, 3, 4)):
            kernels = [random_kernel(space, q, rng, scale=0.5) for q in orders]
            report = gauss_bound_sum(kernels)
            kernels = sorted(kernels, key=lambda k: k.order)
            mass = sum(math.factorial(k.order) * gram_inner(k, k) for k in kernels)
            per_r = _sum_bound_oracle(kernels, 2.0 * len(kernels) ** 2, lambda q, r: r == q)
            _assert_report_matches(report, 2.0 * (1.0 - mass) ** 2, per_r)


def test_gamma_sum_matches_oracle():
    rng = np.random.default_rng(2500)
    for space in _sum_spaces(rng):
        f1 = random_kernel(space, 2, rng, scale=0.7)
        f2 = random_kernel(space, 6, rng, scale=0.3)
        nu1, nu2 = 0.6, 0.4
        report = gamma_bound_sum(f1, nu1, f2, nu2)
        kernels = [f1, f2]
        mass = sum(math.factorial(k.order) * gram_inner(k, k) for k in kernels)
        per_r = _sum_bound_oracle(kernels, 12.0, lambda q, r: r == q or 2 * r == q)
        for k in kernels:
            q = k.order
            cq = midpoint_constant(q)
            diff = symmetrize(space, contract(k, k, q // 2)) - cq * k
            value = 24.0 * cq**-2 * math.factorial(q) * gram_inner(diff, diff)
            per_r[q // 2] = per_r.get(q // 2, 0.0) + value
        _assert_report_matches(report, 3.0 * (2.0 * (nu1 + nu2) - mass) ** 2, per_r)


def test_gamma_sum_forms_no_tensor_product():
    # f2 x_0 f2 alone is a 4^12-entry array (128 MiB); the bound needs none.
    rng = np.random.default_rng(2600)
    space = GramSpace.standard(4)
    f1 = random_kernel(space, 2, rng, scale=0.7)
    f2 = random_kernel(space, 6, rng, scale=0.3)
    tracemalloc.start()
    try:
        gamma_bound_sum(f1, 0.6, f2, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ----------------------------------------------------------------------
# chi^2 double-integral bound
# ----------------------------------------------------------------------


def test_chi2_double_zero_kernel(plane):
    assert chi2_double_bound(SymKernel.zero(plane, 2)) == pytest.approx(
        2.0 * math.sqrt(2.0 * math.pi)
    )


def _chi2_second_term_oracle(f):
    h = symmetrize(f.space, contract(f, f, 0))
    if not h.coeffs:
        return 4.0
    H = ChaosVector.single(h)
    dn = derivative_norm_poly(H)
    d = f.space.dim
    expr = wick.poly_add(
        wick.poly_add(wick.poly_const(d, 2.0), wick.poly_scale(H.to_polynomial(), 2.0)),
        wick.poly_scale(dn, -0.25),
    )
    return wick.poly_gaussian_expectation(wick.poly_pow(expr, 2))


def test_chi2_double_off_diagonal(plane):
    f = symmetrize(plane, np.outer(E1, E2))
    value = chi2_double_bound(f)
    first = 8 * math.sqrt(2) * math.sqrt(1.0 / 8.0)
    assert first == pytest.approx(4.0)
    second = math.sqrt(2 * math.pi * _chi2_second_term_oracle(f))
    assert value == pytest.approx(first + second, rel=1e-10)


def test_chi2_double_diagonal(plane):
    f = tensor_power(plane, E1, 2)
    value = chi2_double_bound(f)
    first = 8 * math.sqrt(2)
    second = math.sqrt(2 * math.pi * _chi2_second_term_oracle(f))
    assert value == pytest.approx(first + second, rel=1e-10)


def test_chi2_double_rejects_wrong_order(plane):
    with pytest.raises(BoundError):
        chi2_double_bound(tensor_power(plane, E1, 3))


# ----------------------------------------------------------------------
# constants and report plumbing
# ----------------------------------------------------------------------


def test_stein_constants_values():
    k1, k2 = stein_constants(1.0)
    assert (k1, k2) == (3.0, 3.0)
    k1, k2 = stein_constants(8.0)
    assert k1 == pytest.approx(math.sqrt(math.pi / 4.0))
    assert k2 == 1.0
    k1, k2 = stein_constants(0.5)
    assert k1 is None
    assert k2 == pytest.approx(10.0)
    with pytest.raises(BoundError):
        stein_constants(0.0)


def test_report_json_and_csv(plane):
    report = gauss_bound_single(0.4 * tensor_power(plane, E1, 2), "tv")
    obj = json.loads(report.to_json())
    assert obj["metric"] == "total-variation"
    assert obj["squared_total"] == pytest.approx(
        obj["variance_term"] + sum(v for _, v in obj["contraction_terms"])
    )
    row = report.csv_row()
    assert row[0] == "total-variation"


def test_all_bounds_nonnegative():
    rng = np.random.default_rng(77)
    space = GramSpace.standard(3)
    for _ in range(50):
        f = random_kernel(space, 2, rng, scale=float(rng.uniform(0.1, 2.0)))
        assert gauss_bound_single(f).squared_total >= 0.0
        assert gamma_bound_single(f, 1.0).squared_total >= 0.0
        assert chi2_double_bound(f) >= 0.0


# ----------------------------------------------------------------------
# the orthonormal frame: every bound against its Gram-metric formula
# ----------------------------------------------------------------------
#
# The oracles below evaluate each bound's formula with the public
# Gram-metric functions (contract, gram_inner, raw_norm_sq, symmetrize) on
# the kernel's own space, in the bounds' operation order.  The bounds move
# their kernels into the Cholesky frame first, so over a non-identity Gram
# the two agree to rounding; over G = I the frame is the kernel itself and
# they agree bit for bit.


def _coeff(p, q, r):
    return (
        p**2
        * (math.factorial(r - 1) * math.comb(p - 1, r - 1) * math.comb(q - 1, r - 1)) ** 2
        * math.factorial(p + q - 2 * r)
    )


def _variance_oracle(kernels, target):
    return (target - sum(math.factorial(f.order) * gram_inner(f, f) for f in kernels)) ** 2


def _midpoint_oracle(g):
    q = g.order
    diff = (1.0 / midpoint_constant(q)) * symmetrize(g.space, contract(g, g, q // 2)) - g
    return math.factorial(q) * gram_inner(diff, diff)


def _cross_oracle(kernels, prefactor, skip):
    norms = [
        [gram_inner(f, f)]
        + [math.sqrt(max(raw_norm_sq(f.space, contract(f, f, k)), 0.0))
           for k in range(1, f.order)]
        for f in kernels
    ]
    per_r = {}
    for i, fi in enumerate(kernels):
        for j, fj in enumerate(kernels):
            p, q = fi.order, fj.order
            for r in range(1, min(p, q) + 1):
                if not (i == j and skip(p, r)):
                    value = prefactor * _coeff(p, q, r) * norms[i][p - r] * norms[j][q - r]
                    per_r[r] = per_r.get(r, 0.0) + value
    return sorted(per_r.items())


def _gauss_single_oracle(f):
    q = f.order
    variance = _variance_oracle([f], 1.0)
    terms, unsym = [], variance
    for r in range(1, q):
        raw = contract(f, f, r)
        sym = symmetrize(f.space, raw)
        terms.append((r, _coeff(q, q, r) * gram_inner(sym, sym)))
        unsym += _coeff(q, q, r) * raw_norm_sq(f.space, raw)
    return variance, terms, unsym


def _gamma_single_oracle(g, nu):
    q = g.order
    terms = [(r, _coeff(q, q, r) * raw_norm_sq(g.space, contract(g, g, r)))
             for r in range(1, q) if 2 * r != q]
    terms = sorted(terms + [(q // 2, 4.0 * _midpoint_oracle(g))])
    return _variance_oracle([g], 2.0 * nu), terms, None


def _gauss_sum_oracle(kernels):
    kernels = sorted(kernels, key=lambda k: k.order)
    terms = _cross_oracle(kernels, 2.0 * len(kernels) ** 2, lambda q, r: r == q)
    return 2.0 * _variance_oracle(kernels, 1.0), terms, None


def _gamma_sum_oracle(f1, nu1, f2, nu2):
    per_r = dict(_cross_oracle([f1, f2], 12.0, lambda q, r: r == q or 2 * r == q))
    for f in (f1, f2):
        per_r[f.order // 2] = per_r.get(f.order // 2, 0.0) + 24.0 * _midpoint_oracle(f)
    return 3.0 * _variance_oracle([f1, f2], 2.0 * (nu1 + nu2)), sorted(per_r.items()), None


def _chi2_double_oracle(f):
    first = 8.0 * math.sqrt(2.0) * math.sqrt(
        max(raw_norm_sq(f.space, contract(f, f, 1)), 0.0)
    )
    hvec = ChaosVector.single(symmetrize(f.space, contract(f, f, 0)))
    x = ChaosVector.build(f.space, 2.0) + 2.0 * hvec - 0.25 * derivative_norm_sq(hvec)
    return first + math.sqrt(2.0 * math.pi * x.second_moment())


def _assert_matches_oracle(report, oracle, exact):
    variance, terms, unsym = oracle
    got = [report.variance_term] + [v for _, v in report.contraction_terms]
    want = [variance] + [v for _, v in terms]
    if unsym is not None:
        got.append(report.unsym_squared_total)
        want.append(unsym)
    assert [r for r, _ in report.contraction_terms] == [r for r, _ in terms]
    if exact:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _frame_cases(rng, dims):
    """(space, exact) pairs: identity spaces, random positive definite Gram
    spaces and a rank-2 PSD one, whose Cholesky factor needs jitter."""
    cases = [(GramSpace.standard(d), True) for d in dims]
    cases += [(random_gram(d, rng), False) for d in dims]
    cases.append((rank_two_gram(dims[-1], rng), False))
    return cases


def test_single_bounds_match_gram_metric_oracle():
    rng = np.random.default_rng(2700)
    for space, exact in _frame_cases(rng, (3, 5)):
        for q in (2, 3, 4):
            f = random_kernel(space, q, rng, scale=0.5)
            _assert_matches_oracle(gauss_bound_single(f, "tv"), _gauss_single_oracle(f), exact)
            if q % 2 == 0:
                for nu in (1.0, 2.5):
                    _assert_matches_oracle(gamma_bound_single(f, nu), _gamma_single_oracle(f, nu),
                                           exact)
        f = random_kernel(space, 2, rng, scale=0.8)
        got, want = chi2_double_bound(f), _chi2_double_oracle(f)
        assert got == want if exact else got == pytest.approx(want, rel=1e-12, abs=0.0)
        # the frame factors a non-identity Gram matrix and records its jitter
        assert (space.cholesky_jitter is None) == space.is_identity
    assert space.cholesky_jitter > 0.0  # the rank-2 space, last of the cases


def test_sum_bounds_match_gram_metric_oracle():
    rng = np.random.default_rng(2800)
    for space, exact in _frame_cases(rng, (3, 5)):
        for orders in ((2, 3), (4, 2), (2, 3, 4)):
            kernels = [random_kernel(space, q, rng, scale=0.5) for q in orders]
            _assert_matches_oracle(gauss_bound_sum(kernels), _gauss_sum_oracle(kernels), exact)
    # order 6 contracts to order 10: d = 3 keeps that at 3^10 entries
    for space, exact in _frame_cases(rng, (3,)):
        f1, f2 = random_kernel(space, 2, rng, scale=0.7), random_kernel(space, 6, rng, scale=0.3)
        _assert_matches_oracle(gamma_bound_sum(f1, 0.6, f2, 0.4),
                               _gamma_sum_oracle(f1, 0.6, f2, 0.4), exact)


def test_gamma_bound_memory_in_the_frame():
    # The order-6 contraction f x_1 f has 10^6 entries (7.6 MiB).  Applying
    # G to each of its axes holds two or three such arrays at once
    # (22.9 MiB traced); in the frame the contraction itself is the peak.
    rng = np.random.default_rng(2900)
    g = random_kernel(random_gram(10, rng), 4, rng)
    tracemalloc.start()
    try:
        gamma_bound_single(g, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
