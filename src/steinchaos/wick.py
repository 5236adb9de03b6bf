"""Multivariate polynomials of Gaussian coordinates and their exact moments.

This is the brute-force moment oracle: a functional with a finite chaos
expansion is expanded into a polynomial of the (orthonormalized) Gaussian
coordinates, and expectations of monomials are evaluated by Wick/Isserlis
pairing.  Everything here is independent of the tensor-contraction bound
machinery, which is the whole point: the two paths check each other.

A polynomial in d variables is a dict mapping exponent tuples of length d
to coefficients; the dict routines build and transform such polynomials.

``poly_power_expectation`` is the moment oracle proper.  It never forms
p^s: with a = floor(s/2) and b = s - a it convolves exponent arrays up to
p^b in numpy and sums c_P c_Q mu(e_P + e_Q) over the monomials P of p^a and
Q of p^b, one Gaussian moment matrix built in row blocks.  ``poly_pow``
followed by ``poly_gaussian_expectation`` computes the same number by dict
convolution and is kept as its test oracle.
"""

from __future__ import annotations

import math

import numpy as np

Poly = dict  # exponent tuple -> coefficient

__all__ = [
    "poly_const",
    "poly_add",
    "poly_scale",
    "poly_mul",
    "poly_pow",
    "poly_diff",
    "monic_hermite_coeffs",
    "monic_hermite_poly",
    "gaussian_monomial_moment",
    "poly_gaussian_expectation",
    "poly_power_expectation",
]

# Entries of one row block of the moment matrix in poly_power_expectation:
# caps its working memory at a few arrays of this size.
_BLOCK_ENTRIES = 1 << 20


def poly_const(nvars: int, c: float) -> Poly:
    if c == 0.0:
        return {}
    return {(0,) * nvars: float(c)}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for mono, coef in q.items():
        new = out.get(mono, 0.0) + coef
        if new == 0.0:
            out.pop(mono, None)
        else:
            out[mono] = new
    return out


def poly_scale(p: Poly, s: float) -> Poly:
    if s == 0.0:
        return {}
    return {mono: s * coef for mono, coef in p.items()}


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0.0}


def poly_pow(p: Poly, s: int) -> Poly:
    """p^s by repeated dict convolution.

    With ``poly_gaussian_expectation`` this is the test oracle for
    ``poly_power_expectation``, which never forms p^s.
    """
    if s < 0:
        raise ValueError("polynomial power must be >= 0")
    nvars = len(next(iter(p))) if p else 0
    out = poly_const(nvars, 1.0)
    for _ in range(s):
        out = poly_mul(out, p)
    return out


def poly_diff(p: Poly, axis: int) -> Poly:
    out: Poly = {}
    for mono, coef in p.items():
        k = mono[axis]
        if k == 0:
            continue
        dm = list(mono)
        dm[axis] = k - 1
        out[tuple(dm)] = out.get(tuple(dm), 0.0) + coef * k
    return out


def monic_hermite_coeffs(q: int) -> list[float]:
    """Coefficients (by power) of the monic Hermite polynomial He_q."""
    if q < 0:
        raise ValueError("Hermite order must be >= 0")
    prev = [1.0]
    if q == 0:
        return prev
    cur = [0.0, 1.0]
    for n in range(1, q):
        # He_{n+1}(x) = x He_n(x) - n He_{n-1}(x)
        nxt = [0.0] + cur
        for k, c in enumerate(prev):
            nxt[k] -= n * c
        prev, cur = cur, nxt
    return cur


def monic_hermite_poly(nvars: int, axis: int, q: int) -> Poly:
    """He_q(x_axis) as a multivariate polynomial."""
    out: Poly = {}
    for power, coef in enumerate(monic_hermite_coeffs(q)):
        if coef == 0.0:
            continue
        mono = [0] * nvars
        mono[axis] = power
        out[tuple(mono)] = coef
    return out


def _double_factorial(k: int) -> float:
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


def gaussian_monomial_moment(exponents: tuple[int, ...]) -> float:
    """E[prod_i x_i^{k_i}] for a standard Gaussian vector, where the
    expectation factorizes into double factorials."""
    out = 1.0
    for k in exponents:
        if k % 2 == 1:
            return 0.0
        out *= _double_factorial(k - 1)
    return out


def poly_gaussian_expectation(p: Poly) -> float:
    """E[p(X)] for X a standard Gaussian vector.

    Applied to ``poly_pow(p, s)`` it is the test oracle for
    ``poly_power_expectation(p, s)``.
    """
    total = 0.0
    for mono, coef in p.items():
        total += coef * gaussian_monomial_moment(mono)
    return total


def _array_mul(
    e1: np.ndarray, c1: np.ndarray, e2: np.ndarray, c2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Product of two polynomials in exponent-array form, equal monomials
    merged and exact zeros dropped.

    The merged monomials come out in lexicographic order (first exponent
    first), as np.unique(axis=0) gives them, and bincount adds each one's
    products in input order; one lexsort over the exponent columns finds
    them, without np.unique's per-row structured-dtype sort.
    """
    exps = (e1[:, None, :] + e2[None, :, :]).reshape(-1, e1.shape[1])
    order = np.lexsort(exps.T[::-1])  # lexsort's last key is its primary one
    ordered = exps[order]
    new = np.ones(len(order), dtype=bool)  # a row unlike the one before it
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    unique = ordered[new]
    coefs = np.bincount(inverse, weights=np.outer(c1, c2).reshape(-1), minlength=len(unique))
    keep = coefs != 0.0
    return unique[keep], coefs[keep]


def _float_power(c: float, s: int) -> float:
    """c^s for an int s >= 1 of any size: inf past the float range and 0.0
    below it, negative for c < 0 and odd s."""
    try:
        magnitude = abs(c) ** s
    except OverflowError:  # |c| > 1 past the float range, or s past it
        magnitude = math.inf if abs(c) > 1.0 else float(abs(c) == 1.0)
    return -magnitude if c < 0 and s % 2 else magnitude


def poly_power_expectation(p: Poly, s: int) -> float:
    """E[p(X)^s] for X a standard Gaussian vector.

    With a = floor(s/2) and b = s - a, E[p^s] = sum over the monomials P of
    p^a and Q of p^b of c_P c_Q mu(e_P + e_Q), where mu(e) = prod_i
    (e_i - 1)!! is 0 as soon as one exponent is odd.  The matrix of mu is
    built in row blocks of at most _BLOCK_ENTRIES entries, one variable at a
    time, and contracted with both coefficient vectors.  A constant p (its
    one monomial has every exponent 0) gives c^s at once, for any s.
    """
    if s < 0:
        raise ValueError("polynomial power must be >= 0")
    if s == 0:
        return 1.0
    if not p:
        return 0.0
    nvars = len(next(iter(p)))
    if len(p) == 1 and not any(next(iter(p))):  # a constant c: E[c^s] = c^s
        return _float_power(next(iter(p.values())), s)
    exps = np.array(list(p), dtype=np.int64).reshape(len(p), nvars)
    coefs = np.fromiter(p.values(), dtype=float, count=len(p))
    a, b = s // 2, s - s // 2
    # p^0 = 1, the constant monomial
    powers = [(np.zeros((1, nvars), dtype=np.int64), np.ones(1)), (exps, coefs)]
    for _ in range(2, b + 1):
        powers.append(_array_mul(*powers[-1], exps, coefs))
    (ea, ca), (eb, cb) = powers[a], powers[b]
    if not len(ca) or not len(cb):
        return 0.0
    top = int(ea.max()) + int(eb.max())
    table = np.array(
        [0.0 if k % 2 else _double_factorial(k - 1) for k in range(top + 1)]
    )
    ea_cols, eb_cols = ea.T.copy(), eb.T.copy()
    rows = max(1, _BLOCK_ENTRIES // len(cb))
    total = 0.0
    for start in range(0, len(ca), rows):
        blk = slice(start, start + rows)
        moments = table[ea_cols[0, blk, None] + eb_cols[0]]
        for j in range(1, nvars):
            moments *= table[ea_cols[j, blk, None] + eb_cols[j]]
        total += float(ca[blk] @ (moments @ cb))
    # 0.0 rather than -0.0 when every moment vanishes
    return total + 0.0
