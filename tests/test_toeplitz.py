import numpy as np
import pytest

from steinchaos._toeplitz import _complete_graph, _four_cycle
from steinchaos.breuer_major import rho_values


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
