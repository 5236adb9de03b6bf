import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import matmul_toeplitz

from steinchaos import _toeplitz as toeplitz_module
from steinchaos._toeplitz import (_circulant_column, _complete_graph, _four_cycle, _toeplitz,
                                  _toeplitz_product, _walk_rows)
from steinchaos.breuer_major import rho_values
from steinchaos.cli import _chi2_sequence


@pytest.mark.parametrize("H", [0.3, 0.55, 0.6, 0.7])
def test_complete_graph_with_unit_middle_factor_is_four_cycle(H):
    # with P_a the all-ones matrix the complete-graph sum is
    # sum_{klij} P_r[k,l] P_b[l,i] P_r[i,j] P_b[j,k] = tr((P_r P_b)^2), so the
    # two algorithms check each other at sizes the dense oracle does not reach
    for n in (1, 2, 3, 7, 64, 257, 1000):
        base = rho_values(H, n - 1)
        for r, m in ((1, 1), (1, 2), (2, 3), (1, 4)):
            pr, pm = base**r, base**m
            graph = _complete_graph(n, pr, np.ones(n), pm)
            assert graph == pytest.approx(_four_cycle(pr, pm), rel=1e-13, abs=0.0), (H, n, r, m)


# The generalized four-cycle tr((A B - C)^2): a hypothesis property against
# dense products at sizes that span one block and several (with a partial
# last block), and one large walk against an extended-precision walk.

WALK = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@WALK
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), same=st.booleans(),
       subtract=st.sampled_from(["none", "random", "near"]))
def test_four_cycle_matches_dense_products(n, seed, same, subtract):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, n)
    b = a if same else rng.uniform(-1.0, 1.0, n)
    A, B = _toeplitz(a), _toeplitz(b)
    product = A @ B
    if subtract == "none":
        c, C = None, np.zeros((n, n))
    else:
        # "near": C close to A B in its first row, so A B - C is small there
        c = rng.uniform(-1.0, 1.0, n) if subtract == "random" else product[0] + 1e-3 * a
        C = _toeplitz(c)
    diff = product - C
    want = np.trace(diff @ diff)
    if same:
        assert want == pytest.approx(float((diff * diff).sum()), rel=1e-12)
    scale = (np.abs(product).sum() + np.abs(C).sum()) ** 2
    got = _four_cycle(a, b) if c is None else _four_cycle(a, b, c)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * scale)


def _longdouble_midpoint(c):
    """||T^2 - T||_F^2 for the symmetric Toeplitz T of first column c, in
    np.longdouble: row 0 of T^2 by direct sums (no FFT), then every diagonal
    of T^2 walked on its own by the displacement identity, T's entry taken
    off before squaring."""
    n = c.size
    x = c.astype(np.longdouble)
    two_sided = np.concatenate([x[:0:-1], x])  # x(|t|) for t = 1 - n, ..., n - 1
    row0 = np.array([np.dot(x, two_sided[n - 1 - j : 2 * n - 1 - j]) for j in range(n)])
    total = np.longdouble(0.0)
    for d in range(n):
        steps = x[1 : n - d] * x[d + 1 :] - x[n - 1 : d : -1] * x[n - 1 - d : 0 : -1]
        diagonal = np.cumsum(np.concatenate([[row0[d] - x[d]], steps]))
        total += (1 if d == 0 else 2) * np.dot(diagonal, diagonal)
    return total


def test_four_cycle_walk_matches_longdouble_walk_at_4096():
    n = 4096
    c = _chi2_sequence(np.arange(n)) / n
    want = _longdouble_midpoint(c)
    assert abs(_four_cycle(c, c, c) - float(want)) <= 1e-12 * float(want)


# One walk per trace: A B - C is centrosymmetric, so diagonal -d is diagonal
# d reversed and _four_cycle walks the diagonals d >= 0 of A B once.


@pytest.mark.parametrize("case", ["a-b", "a-is-b", "with-c"])
def test_four_cycle_makes_one_walk_and_one_product(monkeypatch, case):
    n = 300  # several blocks
    assert _walk_rows(n) < n
    base = rho_values(0.6, n - 1)
    args = {"a-b": (base, base**2), "a-is-b": (base, base), "with-c": (base, base, base)}[case]
    want = _four_cycle(*args)
    calls = {"_product_diagonals": 0, "_toeplitz_product": 0}
    for name in calls:
        original = getattr(toeplitz_module, name)

        def counting(*a, _original=original, _name=name):
            calls[_name] += 1
            return _original(*a)

        monkeypatch.setattr(toeplitz_module, name, counting)
    assert _four_cycle(*args) == want
    assert calls == {"_product_diagonals": 1, "_toeplitz_product": 1}


@pytest.mark.parametrize("n", [1, 2, 5, 64, 128, 129, 300, 1000])
@pytest.mark.parametrize("H", [0.3, 0.7])
def test_four_cycle_of_distinct_factors_matches_dense_trace(n, H):
    # n <= 128 walks one block, n >= 129 several (1000: a partial last one)
    base = rho_values(H, n - 1)
    for a, b in ((base, base**2), (base**2, base), (base, base**3)):
        product = _toeplitz(a) @ _toeplitz(b)
        want = np.trace(product @ product)
        assert _four_cycle(a, b) == pytest.approx(want, rel=1e-12), (n, H)


@pytest.mark.parametrize("n", [4096, 44_721])
def test_toeplitz_product_matches_scipy_on_random_columns(n):
    # 2n - 1 = 8191 is prime; 44,721 is the largest n the op budget admits
    rng = np.random.default_rng(n)
    c, x = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    want = matmul_toeplitz((c, c), x)
    got = _toeplitz_product(c, x)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_circulant_column_embeds_the_toeplitz_matrix(m):
    c = np.random.default_rng(m).uniform(-1.0, 1.0, m + 1)
    column = _circulant_column(c)
    assert column.size == 2 * m
    lags = np.subtract.outer(np.arange(2 * m), np.arange(2 * m)) % (2 * m)
    np.testing.assert_array_equal(column[lags][: m + 1, : m + 1], _toeplitz(c))
