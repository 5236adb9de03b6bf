import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinchaos._toeplitz import _complete_graph, _four_cycle, _toeplitz
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
