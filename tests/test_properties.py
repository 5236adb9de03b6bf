"""Property tests for kernel storage, the Wick-oracle identities and the
chaos expansions.

Inputs are random non-identity Gram spaces of dimension <= 4 and kernels of
order 0-5 over sorted multi-indices with repeated entries, built three ways:
from a coefficient dict, by symmetrizing a raw array, and by arithmetic on
those.  The chaos expansions (product, ||DF||^2) are checked against the
coordinate-polynomial oracle of the wick module.  Hypothesis runs
derandomized and without its example database, so the suite stays
deterministic and leaves no files behind.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import derivative_norm_poly
from steinchaos import wick
from steinchaos.bounds import gauss_bound_single, second_chaos_exact_squared
from steinchaos.chaos import ChaosVector, derivative_norm_sq, exact_moment, product
from steinchaos.tensors import GramSpace, SymKernel, symmetrize

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
NONZERO = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False,
                    allow_subnormal=False).filter(lambda v: abs(v) > 1e-6)


@st.composite
def gram_spaces(draw, max_dim=4):
    d = draw(st.integers(1, max_dim))
    a = np.array(draw(st.lists(UNIT, min_size=d * d, max_size=d * d))).reshape(d, d)
    g = a @ a.T / d + 0.5 * np.eye(d)
    space = GramSpace((g + g.T) / 2.0)
    assume(not space.is_identity)
    return space


@st.composite
def coefficient_dicts(draw, space, order, values=NONZERO):
    indices = list(itertools.combinations_with_replacement(range(space.dim), order))
    return draw(st.dictionaries(st.sampled_from(indices), values, min_size=1))


@st.composite
def kernels(draw, space, order, values=NONZERO):
    how = draw(st.sampled_from(["dict", "symmetrize", "combination"]))
    if how == "dict":
        return SymKernel(space, order, draw(coefficient_dicts(space, order, values)))
    raw = draw(arrays(np.float64, (space.dim,) * order, elements=values))
    sym = symmetrize(space, raw)
    if how == "symmetrize":
        return sym
    other = SymKernel(space, order, draw(coefficient_dicts(space, order, values)))
    return other - draw(UNIT) * sym


@st.composite
def spaced_kernels(draw, orders=st.integers(0, 5), values=NONZERO):
    space = draw(gram_spaces())
    return draw(kernels(space, draw(orders), values))


@PROPERTY
@given(spaced_kernels())
def test_json_round_trip_keeps_coeffs_exactly(k):
    restored = SymKernel.from_json(k.to_json())
    assert restored.order == k.order
    assert restored.coeffs == k.coeffs
    assert np.array_equal(restored.space.gram, k.space.gram)


@PROPERTY
@given(spaced_kernels())
def test_derived_coeffs_rebuild_exactly(k):
    assert SymKernel(k.space, k.order, k.coeffs).coeffs == k.coeffs


@PROPERTY
@given(st.data())
def test_dict_constructor_keeps_coeffs(data):
    space = data.draw(gram_spaces())
    order = data.draw(st.integers(0, 5))
    coeffs = data.draw(coefficient_dicts(space, order))
    got = SymKernel(space, order, coeffs).coeffs
    assert set(got) == set(coeffs)
    for index, value in coeffs.items():
        assert got[index] == pytest.approx(value, rel=1e-15, abs=0.0)


@PROPERTY
@given(st.data())
def test_wick_second_moment_matches_orthogonality(data):
    space = data.draw(gram_spaces())
    orders = sorted(data.draw(st.sets(st.integers(1, 5), min_size=1, max_size=2)))
    terms = [data.draw(kernels(space, q, UNIT)) for q in orders]
    F = ChaosVector.build(space, data.draw(UNIT), terms)
    assert exact_moment(F, 2) == pytest.approx(F.second_moment(), rel=1e-10, abs=1e-10)


@PROPERTY
@given(spaced_kernels(orders=st.just(2), values=UNIT))
def test_second_chaos_moments_match_contraction_bound(f):
    F = ChaosVector.single(f)
    from_moments = second_chaos_exact_squared(exact_moment(F, 2), exact_moment(F, 4))
    assert from_moments == pytest.approx(
        gauss_bound_single(f).squared_total, rel=1e-10, abs=1e-10
    )


@st.composite
def chaos_vectors(draw, space, constant, min_terms=1):
    """Up to two chaoses of orders 1-3 plus the given constant."""
    orders = sorted(draw(st.sets(st.integers(1, 3), min_size=min_terms, max_size=2)))
    terms = [draw(kernels(space, q, UNIT)) for q in orders]
    return ChaosVector.build(space, constant, terms)


def assert_polys_close(got, want):
    for mono in set(got) | set(want):
        assert got.get(mono, 0.0) == pytest.approx(
            want.get(mono, 0.0), rel=1e-10, abs=1e-10
        ), mono


NONZERO_UNIT = UNIT.filter(lambda v: abs(v) > 1e-3)


@PROPERTY
@given(st.data())
def test_product_matches_polynomial_product(data):
    space = data.draw(gram_spaces(max_dim=3))
    F = data.draw(chaos_vectors(space, data.draw(NONZERO_UNIT)))
    G = data.draw(chaos_vectors(space, data.draw(NONZERO_UNIT)))
    assert_polys_close(
        product(F, G).to_polynomial(),
        wick.poly_mul(F.to_polynomial(), G.to_polynomial()),
    )


@PROPERTY
@given(st.data())
def test_derivative_norm_sq_matches_polynomial_derivative(data):
    space = data.draw(gram_spaces(max_dim=3))
    F = data.draw(chaos_vectors(space, 0.0, min_terms=2))
    assert_polys_close(derivative_norm_sq(F).to_polynomial(), derivative_norm_poly(F))
