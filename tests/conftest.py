"""Shared helpers: seeded random kernels, Gram matrices, Wick-side oracles."""

from __future__ import annotations

import itertools

import numpy as np

from steinchaos import wick
from steinchaos.chaos import ChaosVector
from steinchaos.tensors import GramSpace, SymKernel


def random_gram(dim: int, rng: np.random.Generator) -> GramSpace:
    a = rng.normal(size=(dim, dim))
    g = a @ a.T / dim + 0.5 * np.eye(dim)
    g = (g + g.T) / 2.0
    return GramSpace(g)


def rank_two_gram(dim: int, rng: np.random.Generator) -> GramSpace:
    """A PSD Gram space of rank 2: its Cholesky factor needs jitter."""
    v = rng.normal(size=(dim, 2))
    g = v @ v.T
    return GramSpace((g + g.T) / 2.0)


def random_kernel(
    space: GramSpace, order: int, rng: np.random.Generator, scale: float = 1.0
) -> SymKernel:
    coeffs = {
        idx: rng.uniform(-1.0, 1.0)
        for idx in itertools.combinations_with_replacement(range(space.dim), order)
    }
    kernel = SymKernel(space, order, coeffs)
    norm = kernel.norm()
    return kernel * (scale / norm) if norm > 0 else kernel


def derivative_norm_poly(F: ChaosVector) -> wick.Poly:
    """||DF||^2 as sum of squared coordinate partials of the F polynomial.

    Independent of the tensor-contraction expansion of the same quantity:
    only polynomial differentiation and multiplication are involved.
    """
    p = F.to_polynomial()
    d = F.space.dim
    total: wick.Poly = {}
    for axis in range(d):
        dp = wick.poly_diff(p, axis)
        total = wick.poly_add(total, wick.poly_mul(dp, dp))
    return total


def wick_expectation_of(expr: wick.Poly) -> float:
    return wick.poly_gaussian_expectation(expr)
