import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gram, random_kernel, rank_two_gram
from steinchaos import tensors
from steinchaos.tensors import (
    MAX_JITTER,
    GramSpace,
    InvalidContractionError,
    InvalidOrderError,
    OrderMismatchError,
    SpaceMismatchError,
    SymKernel,
    TensorError,
    contract,
    gram_inner,
    raw_norm_sq,
    sorted_coeffs,
    _jittered_cholesky,
    _orthonormal,
    symmetrize,
    tensor_power,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


@pytest.fixture
def plane():
    return GramSpace.standard(2)


def test_tensor_power_rank_one(plane):
    k = tensor_power(plane, E1, 2)
    assert k.coeffs == {(0, 0): 1.0}


def test_tensor_power_order_zero(plane):
    k = tensor_power(plane, E1, 0)
    assert k.order == 0
    assert k.coeffs == {(): 1.0}


def test_tensor_power_sum_vector(plane):
    k = tensor_power(plane, E1 + E2, 2)
    assert k.coeffs == {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 1.0}
    assert np.array_equal(k.to_dense(), np.ones((2, 2)))


def test_tensor_power_negative_order(plane):
    with pytest.raises(InvalidOrderError):
        tensor_power(plane, E1, -1)


def test_symmetrize_two_slots(plane):
    raw = np.outer(E1, E2)
    k = symmetrize(plane, raw)
    assert np.allclose(k.to_dense(), np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_symmetrize_fixed_point(plane):
    raw = np.outer(E1, E1)
    k = symmetrize(plane, raw)
    assert np.array_equal(k.to_dense(), raw)


def test_symmetrize_three_distinct():
    space = GramSpace.standard(3)
    raw = np.zeros((3, 3, 3))
    raw[0, 1, 2] = 1.0
    k = symmetrize(space, raw)
    dense = k.to_dense()
    for perm in {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}:
        assert dense[perm] == pytest.approx(1.0 / 6.0)


def test_symmetrize_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(10):
        space = GramSpace.standard(3)
        raw = rng.normal(size=(3, 3, 3))
        once = symmetrize(space, raw)
        twice = symmetrize(space, once.to_dense())
        for idx, val in once.coeffs.items():
            assert twice.coeffs.get(idx, 0.0) == pytest.approx(val, abs=1e-14)


def test_contract_zero_is_tensor_product(plane):
    f = tensor_power(plane, E1, 1)
    g = tensor_power(plane, E2, 1)
    out = contract(f, g, 0)
    assert np.array_equal(out, np.outer(E1, E2))


@pytest.mark.parametrize("p, q", [(2, 2), (3, 2), (1, 4), (0, 2), (2, 0), (0, 0)])
def test_contract_zero_is_the_outer_product_entry_for_entry(p, q):
    # one tensordot pairing no axes, on a non-identity Gram space: the Gram
    # metric enters no r = 0 entry
    rng = np.random.default_rng(10 * p + q)
    space = random_gram(4, rng)
    assert not space.is_identity
    f, g = random_kernel(space, p, rng), random_kernel(space, q, rng)
    got, want = contract(f, g, 0), np.multiply.outer(f.to_dense(), g.to_dense())
    assert np.shape(got) == want.shape
    assert np.asarray(got).tobytes() == want.tobytes()


def test_contract_zero_matches_the_outer_product_on_sparse_kernels():
    # a zero entry times a negative one is -0.0 in np.multiply.outer and may
    # be +0.0 in the tensordot: equal values, and equal bytes on every
    # nonzero product
    space = GramSpace.standard(3)
    f = SymKernel(space, 2, {(0, 0): 1.5, (1, 2): -0.25})
    g = SymKernel(space, 1, {(0,): -2.0, (2,): 0.5})
    got, want = contract(f, g, 0), np.multiply.outer(f.to_dense(), g.to_dense())
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


def test_contract_full_is_inner(plane):
    f = tensor_power(plane, E1, 2)
    assert contract(f, f, 2) == pytest.approx(1.0)


def test_contract_middle(plane):
    f = 0.5 * (tensor_power(plane, E1, 2) + tensor_power(plane, E2, 2))
    out = contract(f, f, 1)
    assert np.allclose(out, 0.25 * np.eye(2))


def test_contract_range_error(plane):
    f = tensor_power(plane, E1, 2)
    with pytest.raises(InvalidContractionError):
        contract(f, f, 3)


def test_contract_space_mismatch(plane):
    other = GramSpace(np.array([[2.0, 0.0], [0.0, 2.0]]))
    f = tensor_power(plane, E1, 1)
    g = tensor_power(other, np.array([1.0, 0.0]), 1)
    with pytest.raises(SpaceMismatchError):
        contract(f, g, 1)


def test_gram_inner_basis(plane):
    f = tensor_power(plane, E1, 1)
    assert gram_inner(f, f) == pytest.approx(1.0)


def test_gram_inner_correlated_metric():
    rho = 0.37
    space = GramSpace(np.array([[1.0, rho], [rho, 1.0]]))
    f = tensor_power(space, np.array([1.0, 0.0]), 1)
    g = tensor_power(space, np.array([0.0, 1.0]), 1)
    assert gram_inner(f, g) == pytest.approx(rho)


def test_gram_inner_product_metric(plane):
    # <e1 x e2, e1 x e2> = 1 under the induced product metric
    k = tensor_power(plane, E1, 1)
    m = tensor_power(plane, E2, 1)
    assert raw_norm_sq(plane, contract(k, m, 0)) == pytest.approx(1.0)


def test_gram_inner_order_mismatch(plane):
    f = tensor_power(plane, E1, 1)
    g = tensor_power(plane, E1, 2)
    with pytest.raises(OrderMismatchError):
        gram_inner(f, g)


def test_symmetrization_norm_nonincreasing():
    # ||sym(f x_r g)|| <= ||f x_r g|| over random kernels and metrics
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        space = random_gram(d, rng) if seed % 2 else GramSpace.standard(d)
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f = random_kernel(space, p, rng)
        g = random_kernel(space, q, rng)
        r = int(rng.integers(0, min(p, q) + 1))
        raw = contract(f, g, r)
        if np.ndim(raw) == 0:
            continue
        sym = symmetrize(space, raw)
        assert math.sqrt(gram_inner(sym, sym)) <= math.sqrt(
            raw_norm_sq(space, raw)
        ) + 1e-12


def test_mixed_contraction_norm_relation():
    # ||f x_r g||^2 = <f x_{p-r} f, g x_{q-r} g>
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(2, 4))
        space = random_gram(d, rng) if seed % 2 else GramSpace.standard(d)
        p, q = 2, 3
        f = random_kernel(space, p, rng)
        g = random_kernel(space, q, rng)
        for r in range(1, p + 1):
            lhs = raw_norm_sq(space, contract(f, g, r))
            left = contract(f, f, p - r)
            right = contract(g, g, q - r)
            rhs = float(
                np.tensordot(
                    np.asarray(left),
                    _metric_transform(space, np.asarray(right)),
                    axes=2 * r,
                )
            )
            assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


def _metric_transform(space, arr):
    out = arr
    for _ in range(arr.ndim):
        out = np.tensordot(out, space.gram, axes=([0], [0]))
    return out


def test_rank_one_product_norm(plane):
    rng = np.random.default_rng(3)
    for seed in range(10):
        h1 = rng.normal(size=2)
        h2 = rng.normal(size=2)
        f = tensor_power(plane, h1, 2)
        g = tensor_power(plane, h2, 1)
        prod = contract(f, g, 0)
        assert raw_norm_sq(plane, prod) == pytest.approx(
            gram_inner(f, f) * gram_inner(g, g), rel=1e-12
        )


def test_gram_validation_rejects_asymmetric():
    with pytest.raises(TensorError):
        GramSpace(np.array([[1.0, 0.1], [0.2, 1.0]]))


def test_gram_validation_rejects_indefinite():
    with pytest.raises(TensorError):
        GramSpace(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("gram", [[[1.0, "x"], ["x", 1.0]], [[1.0, 0.0], [0.0]], [[1.0, {}]],
                                  [[1.0, 0.0], [0.0, math.inf]]])
def test_gram_validation_rejects_non_numeric_and_ragged(gram):
    with pytest.raises(TensorError):
        GramSpace(gram)


def test_cholesky_with_borderline_matrix():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, singular
    space = GramSpace(g)
    L = space.cholesky()
    assert np.allclose(L @ L.T, g, atol=1e-10)


def test_cholesky_jitter_from_the_shared_helper():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, singular: needs jitter
    L, jitter = _jittered_cholesky(g, 1e-16, MAX_JITTER, TensorError("budget"))
    assert 1e-16 <= jitter <= MAX_JITTER
    assert np.array_equal(L, np.linalg.cholesky(g + jitter * np.eye(2)))
    assert np.array_equal(GramSpace(g).cholesky(), L)
    well = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert _jittered_cholesky(well, 1e-16, MAX_JITTER, TensorError("budget"))[1] == 0.0
    # indefinite by 2e-11: inside the PSD tolerance, beyond the jitter budget
    bad = np.array([[1.0, 1.0 + 2e-11], [1.0 + 2e-11, 1.0]])
    with pytest.raises(TensorError):
        GramSpace(bad).cholesky()


def test_gram_space_records_cholesky_jitter():
    singular = GramSpace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert singular.cholesky_jitter is None
    L = singular.cholesky()
    assert 0.0 < singular.cholesky_jitter <= MAX_JITTER
    assert np.array_equal(
        L, np.linalg.cholesky(singular.gram + singular.cholesky_jitter * np.eye(2))
    )
    well = GramSpace(np.array([[2.0, 0.5], [0.5, 1.0]]))
    well.cholesky()
    assert well.cholesky_jitter == 0.0
    with pytest.raises(AttributeError):
        well.cholesky_jitter = 1e-13


def test_kernel_json_round_trip():
    rng = np.random.default_rng(8)
    space = random_gram(3, rng)
    k = random_kernel(space, 3, rng)
    restored = SymKernel.from_json(k.to_json())
    assert restored.order == k.order
    assert restored.coeffs == k.coeffs
    assert np.array_equal(restored.space.gram, space.gram)
    # schema spot check
    obj = json.loads(k.to_json())
    assert set(obj) == {"dim", "order", "entries", "gram"}


@pytest.mark.parametrize(
    "change",
    [{"gram": None}, {"dim": None}, {"entries": None}, {"order": "x"},
     {"entries": [[[0, 0], "half"]]}, {"entries": [[["a", 0], 0.5]]}, {"entries": [[[0, 0]]]},
     {"gram": [[1.0, "x"], ["x", 1.0]]}, {"entries": [[[0, 1], 1.0], [[0, 1.0], 5.0]]},
     {"dim": 1, "order": 70, "gram": [[1.0]], "entries": []}],
)
def test_kernel_json_malformed_is_tensor_error(change):
    obj = {"dim": 2, "order": 2, "entries": [[[0, 0], 0.5]], "gram": [[1.0, 0.0], [0.0, 1.0]]}
    obj.update(change)
    obj = {k: v for k, v in obj.items() if v is not None}  # None drops the key
    with pytest.raises(TensorError):
        SymKernel.from_json_obj(obj)
    with pytest.raises(TensorError):
        SymKernel.from_json_obj([obj])


def test_kernel_arithmetic(plane):
    f = tensor_power(plane, E1, 2)
    g = tensor_power(plane, E2, 2)
    s = f + 2.0 * g
    assert s.coeffs == {(0, 0): 1.0, (1, 1): 2.0}
    assert (s - s).coeffs == {}


def test_from_dense_rejects_asymmetric(plane):
    upper = np.array([[0.0, 1.0], [0.0, 0.0]])
    for arr in (upper, upper.T):
        with pytest.raises(TensorError):
            SymKernel.from_dense(plane, arr)
    cube = np.zeros((2, 2, 2))
    cube[0, 0, 1] = cube[0, 1, 0] = 1.0  # (1, 0, 0) missing
    with pytest.raises(TensorError):
        SymKernel.from_dense(plane, cube)
    nearly = np.array([[2.0, 1.0], [1.0 + 1e-15, 0.0]])  # rounding-level
    assert np.array_equal(SymKernel.from_dense(plane, nearly).to_dense(), nearly)


def test_identity_gram_skips_the_eigenvalue_check(monkeypatch):
    def refuse(g):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert GramSpace.standard(64).is_identity
    assert GramSpace(np.eye(3)).is_identity
    with pytest.raises(AssertionError, match="eigvalsh"):
        GramSpace(np.diag([1.0, 2.0]))


# ----------------------------------------------------------------------
# the dict constructor's numpy read
# ----------------------------------------------------------------------


def _multiplicity(index):
    """Number of distinct orderings of a sorted multi-index, by run lengths."""
    count = math.factorial(len(index))
    for _, group in itertools.groupby(index):
        count //= math.factorial(sum(1 for _ in group))
    return count


def _dict_read_oracle(space, order, coeffs):
    """The per-entry loop that SymKernel.__init__ ran before its numpy read,
    kept here as the deliberate oracle of that read."""
    arr = np.zeros((space.dim,) * order)
    for index, value in coeffs.items():
        idx = tuple(int(i) for i in index)
        if len(idx) != order:
            raise TensorError(f"multi-index {idx} has length != order {order}")
        if any(i < 0 or i >= space.dim for i in idx):
            raise TensorError(f"multi-index {idx} out of range [0, {space.dim})")
        if tuple(sorted(idx)) != idx:
            raise TensorError(f"multi-index {idx} is not sorted")
        entry = float(value) / _multiplicity(idx)
        for perm in set(itertools.permutations(idx)):
            arr[perm] = entry
    return arr


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_numpy_dict_read_equals_the_entry_loop(data):
    dim = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(0, 5))
    indices = list(itertools.combinations_with_replacement(range(dim), order))
    values = st.floats(allow_nan=False, allow_infinity=False)
    coeffs = data.draw(st.dictionaries(st.sampled_from(indices), values))
    space = GramSpace.standard(dim)
    assert np.array_equal(SymKernel(space, order, coeffs).to_dense(),
                          _dict_read_oracle(space, order, coeffs))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_dict_read_matches_the_entry_loop_bit_for_bit(data):
    dim = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(0, 5))
    indices = list(itertools.combinations_with_replacement(range(dim), order))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0])
    coeffs = data.draw(st.dictionaries(st.sampled_from(indices), values))
    space = GramSpace.standard(dim)
    assert (SymKernel(space, order, coeffs).to_dense().tobytes()
            == _dict_read_oracle(space, order, coeffs).tobytes())  # signed zeros too


def test_dict_read_work_does_not_grow_with_the_orderings():
    # one entry at d = 1: the array has one element whatever q is, so the
    # read must not walk the q! axis permutations
    for order in (10, 25):
        start = time.perf_counter()
        kernel = SymKernel(GramSpace.standard(1), order, {(0,) * order: 2.0})
        assert time.perf_counter() - start < 1.0
        assert kernel.coeffs == {(0,) * order: 2.0}


def _sorted_coeffs_oracle(dense):
    """The per-index loop that sorted_coeffs ran before its numpy gather,
    kept here as the deliberate oracle of that gather."""
    arr = np.asarray(dense)
    out = {}
    dim = arr.shape[0] if arr.ndim else 0
    for index in itertools.combinations_with_replacement(range(dim), arr.ndim):
        v = float(arr[index])
        if v != 0.0:
            out[index] = v * _multiplicity(index)
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_sorted_coeffs_equals_the_index_loop(data):
    dim = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(0, 5))
    values = st.floats(-1e100, 1e100) | st.just(0.0)  # subnormals too
    raw = np.array(data.draw(st.lists(values, min_size=dim**order, max_size=dim**order)))
    dense = symmetrize(GramSpace.standard(dim), raw.reshape((dim,) * order)).to_dense()
    got, expect = sorted_coeffs(dense), _sorted_coeffs_oracle(dense)
    assert list(got) == list(expect)  # same keys in the same order
    assert all(type(k[0]) is int for k in got if k)
    assert [v.hex() for v in got.values()] == [v.hex() for v in expect.values()]


def test_sorted_coeffs_of_an_order_zero_kernel_and_of_zeros():
    assert sorted_coeffs(np.array(2.5)) == {(): 2.5}
    assert sorted_coeffs(np.array(0.0)) == {}
    assert sorted_coeffs(np.zeros((3, 3, 3))) == {}


def test_raw_norm_sq_of_a_scalar_is_its_square():
    x = 1.0 / 3.0
    for space in (GramSpace.standard(2), GramSpace([[2.0, 0.5], [0.5, 1.0]])):
        assert raw_norm_sq(space, np.array(x)) == x * x
        assert raw_norm_sq(space, x) == x * x
        assert raw_norm_sq(space, -1.5) == 2.25
        assert type(raw_norm_sq(space, x)) is float


@pytest.mark.parametrize(
    "order, coeffs",
    [(2.5, {(0, 1): 1.0}), (2, {(0, 0.7): 1.0}), (2, {(0, float("nan")): 1.0}),
     (float("inf"), {}), ([2], {}), (2, {(0,): 1.0}), (1, {0: 1.0}), (2, {(1, 0): 1.0}),
     (2, {(0, 2): 1.0}), (2, {(-1, 0): 1.0}), (2, {(0, 1): "half"}), (2, {(0, 1): [1.0]}),
     (2, {(0, 1): math.nan}), (2, {(0, 0): 1.0, (1, 1): -math.inf})],
)
def test_dict_read_refuses_what_it_cannot_read_exactly(plane, order, coeffs):
    with pytest.raises(TensorError):
        SymKernel(plane, order, coeffs)


def test_dict_read_takes_integral_floats(plane):
    exact = SymKernel(plane, 2, {(0, 1): 2.0, (1, 1): 3.0})
    floats = SymKernel(plane, 2.0, {(0.0, 1.0): 2.0, (np.int64(1), 1.0): 3.0})
    assert floats.order == 2
    assert np.array_equal(floats.to_dense(), exact.to_dense())


@pytest.mark.parametrize(
    "change",
    [{"order": 2.5, "entries": [[[0, 0.7], 0.5]]}, {"order": 2.5}, {"dim": 2.5},
     {"entries": [[[0, 0.7], 0.5]]}, {"order": [2]}],
)
def test_kernel_json_non_integral_is_tensor_error(change):
    obj = {"dim": 2, "order": 2, "entries": [[[0, 0], 0.5]], "gram": [[1.0, 0.0], [0.0, 1.0]]}
    obj.update(change)
    with pytest.raises(TensorError):
        SymKernel.from_json_obj(obj)


def test_kernel_json_integral_floats_read_as_integers():
    obj = {"dim": 2, "order": 2, "entries": [[[0, 1], 0.5]], "gram": [[1.0, 0.0], [0.0, 1.0]]}
    floats = dict(obj, dim=2.0, order=2.0, entries=[[[0.0, 1.0], 0.5]])
    assert SymKernel.from_json_obj(floats).coeffs == SymKernel.from_json_obj(obj).coeffs


# ----------------------------------------------------------------------
# the orthonormal frame
# ----------------------------------------------------------------------


def test_orthonormal_frame_keeps_gram_metric_values():
    rng = np.random.default_rng(31)
    for space in (random_gram(3, rng), random_gram(5, rng), rank_two_gram(4, rng)):
        f, g = random_kernel(space, 3, rng), random_kernel(space, 2, rng)
        of, og = _orthonormal(f), _orthonormal(g)
        assert of.space.is_identity and of.space.dim == space.dim
        assert space.cholesky_jitter is not None
        assert gram_inner(of, of) == pytest.approx(gram_inner(f, f), rel=1e-12)
        for r in range(3):
            assert raw_norm_sq(of.space, contract(of, og, r)) == pytest.approx(
                raw_norm_sq(space, contract(f, g, r)), rel=1e-12
            )
        sym = symmetrize(of.space, contract(of, of, 1))
        oracle = symmetrize(space, contract(f, f, 1))
        assert gram_inner(sym, sym) == pytest.approx(gram_inner(oracle, oracle), rel=1e-12)


def test_orthonormal_frame_of_identity_space_is_the_kernel():
    space = GramSpace.standard(3)
    f = random_kernel(space, 3, np.random.default_rng(32))
    assert _orthonormal(f) is f
    assert space.cholesky_jitter is None


# ----------------------------------------------------------------------
# the contraction memory guard
# ----------------------------------------------------------------------


@pytest.mark.parametrize("r", [0, 1])
def test_contraction_guard_refuses_before_work(monkeypatch, r):
    def no_work(*args):
        raise AssertionError("the contraction ran")

    rng = np.random.default_rng(11)
    space = random_gram(3, rng)  # a correlated space: the metric is applied first
    f, g = random_kernel(space, 2, rng), random_kernel(space, 3, rng)
    need = tensors._contraction_bytes(3, 2, 3, r)
    monkeypatch.setattr(tensors, "_physical_memory", lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(tensors, "_apply_gram", no_work)  # the first work of r >= 1
        with pytest.raises(TensorError, match="memory budget"):
            contract(f, g, r)
    monkeypatch.setattr(tensors, "_physical_memory", lambda: need)
    assert contract(f, g, r).shape == (3,) * (5 - 2 * r)


@pytest.mark.parametrize("d, q, r", [(12, 3, 1), (9, 4, 1), (10, 4, 2), (6, 2, 0)])
def test_contraction_bytes_models_a_symmetrized_contraction(d, q, r):
    # the contraction and symmetrize's two working arrays, plus the copies
    # of the operands tensordot makes and a few small arrays
    rng = np.random.default_rng(d)
    space = random_gram(d, rng)
    f = random_kernel(space, q, rng)
    tracemalloc.start()
    try:
        symmetrize(space, contract(f, f, r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = tensors._contraction_bytes(d, q, q, r)
    assert need <= peak <= need + 2 * f.to_dense().nbytes + 128 * 1024
