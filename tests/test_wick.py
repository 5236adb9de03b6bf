"""The exponent-array product of the Wick oracle, pinned bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_gram, random_kernel
from steinchaos import wick
from steinchaos.chaos import ChaosVector, exact_moment


def _unique_mul(e1, c1, e2, c2):
    """Deliberate oracle for wick._array_mul: the same product with equal
    monomials merged by np.unique(axis=0), a sort of whole rows through a
    structured dtype.  The library merges them with one column lexsort; both
    must give the same rows in the same order and bit-identical sums."""
    exps = (e1[:, None, :] + e2[None, :, :]).reshape(-1, e1.shape[1])
    unique, inverse = np.unique(exps, axis=0, return_inverse=True)
    coefs = np.bincount(
        inverse.reshape(-1), weights=np.outer(c1, c2).reshape(-1), minlength=len(unique)
    )
    keep = coefs != 0.0
    return unique[keep], coefs[keep]


def _assert_same(got, want):
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("d", [1, 4, 16, 40])
def test_merge_matches_unique_oracle_with_many_ties(d):
    rng = np.random.default_rng(d)
    for n1, n2, rows in ((1, 1, 1), (7, 5, 2), (60, 45, 6), (200, 30, 12)):
        # rows drawn from a few distinct ones make most products share a monomial
        e1 = rng.integers(0, 3, (rows, d))[rng.integers(0, rows, n1)]
        e2 = rng.integers(0, 3, (rows, d))[rng.integers(0, rows, n2)]
        c1, c2 = rng.normal(size=n1), rng.normal(size=n2)
        got = wick._array_mul(e1, c1, e2, c2)
        _assert_same(got, _unique_mul(e1, c1, e2, c2))
        assert len(got[1]) <= rows * rows


def test_merge_drops_exact_cancellations_like_the_oracle():
    # (x + y)(y - x) = y^2 - x^2: the two xy products cancel exactly
    e1 = np.array([[1, 0], [0, 1]])
    e2 = np.array([[0, 1], [1, 0]])
    c1, c2 = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    got = wick._array_mul(e1, c1, e2, c2)
    _assert_same(got, _unique_mul(e1, c1, e2, c2))
    assert got[0].tolist() == [[0, 2], [2, 0]] and got[1].tolist() == [1.0, -1.0]
    # cancellations at random: equal and opposite coefficients on tied rows
    rng = np.random.default_rng(7)
    e1 = rng.integers(0, 2, (40, 4))
    c1 = np.repeat(rng.choice([-1.0, 1.0, 0.5], 20), 2) * np.tile([1.0, -1.0], 20)
    e1[1::2] = e1[::2]
    e2, c2 = rng.integers(0, 2, (9, 4)), rng.normal(size=9)
    got = wick._array_mul(e1, c1, e2, c2)
    want = _unique_mul(e1, c1, e2, c2)
    _assert_same(got, want)
    assert len(want[1]) == 0


def test_merge_of_an_underflowed_product_is_empty_and_composes():
    e = np.array([[1, 2, 0]])
    c = np.array([1e-200])
    got = wick._array_mul(e, c, e, c)
    _assert_same(got, _unique_mul(e, c, e, c))
    assert got[0].shape == (0, 3)
    _assert_same(wick._array_mul(*got, e, c), _unique_mul(*got, e, c))


# E[F^s] of the parent commit's np.unique merge, on one seeded non-identity
# Gram space at d = 4; q = 3 at s = 6 and q = 4 at s >= 5 are over DEGREE_GUARD
PINNED = {
    2: {3: 5.5083727277193635, 4: 40.427205755446494, 5: 300.0265048366715,
        6: 2912.016448651922},
    3: {3: 0.0, 4: 2594.7439688347445, 5: 0.0},
    4: {3: -1493.9512064855082, 4: 302468.5130636065},
}


def test_exact_moment_is_pinned_bit_for_bit():
    rng = np.random.default_rng(31)
    space = random_gram(4, rng)
    assert not space.is_identity
    for q, moments in PINNED.items():
        F = ChaosVector.single(random_kernel(space, q, rng))
        assert {s: exact_moment(F, s) for s in moments} == moments


@pytest.mark.parametrize("c", [2.0, -1.5])
def test_power_expectation_of_a_constant_in_zero_variables(c):
    for s in range(6):
        want = wick.poly_gaussian_expectation(wick.poly_pow({(): c}, s))
        assert wick.poly_power_expectation({(): c}, s) == want == c**s
        assert wick.poly_power_expectation(wick.poly_const(0, c), s) == want
    assert [wick.poly_power_expectation({}, s) for s in range(1, 6)] == [0.0] * 5


def _rational_power_expectation(p, s):
    """E[p(X)^s] in exact rational arithmetic: the float coefficients of p
    as Fractions, p^s by dict convolution, and each monomial moment the
    exact integer prod_i (k_i - 1)!!."""
    coeffs = {mono: Fraction(c) for mono, c in p.items()}
    power = {(0,) * len(next(iter(p))): Fraction(1)}
    for _ in range(s):
        out = {}
        for m1, c1 in power.items():
            for m2, c2 in coeffs.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        power = out
    total = Fraction(0)
    for mono, c in power.items():
        if all(k % 2 == 0 for k in mono):
            total += c * math.prod(math.prod(range(k - 1, 0, -2)) for k in mono)
    return total


@pytest.mark.parametrize("q, s, d", [(2, 8, 2), (4, 4, 2), (3, 5, 3), (3, 4, 3)])
def test_exact_moment_matches_rational_arithmetic_at_the_degree_guard(q, s, d):
    rng = np.random.default_rng(100 * q + 10 * s + d)
    space = random_gram(d, rng)
    assert not space.is_identity
    F = ChaosVector.single(random_kernel(space, q, rng))
    got, want = exact_moment(F, s), _rational_power_expectation(F.to_polynomial(), s)
    if q * s % 2:
        assert got == want == 0
    else:
        assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * abs(want)
