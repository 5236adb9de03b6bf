"""Multivariate polynomials of Gaussian coordinates and their exact moments.

This is the brute-force moment oracle: a functional with a finite chaos
expansion is expanded into a polynomial of the (orthonormalized) Gaussian
coordinates, and expectations of monomials are evaluated by Wick/Isserlis
pairing.  Everything here is independent of the tensor-contraction bound
machinery, which is the whole point: the two paths check each other.

A polynomial in d variables is a dict mapping exponent tuples of length d
to coefficients.  Sizes stay small (exact_moment guards degree * power <= 16
and the monomial products of the last convolution), so plain dict
convolution is fast enough.
"""

from __future__ import annotations

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
]


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
    """E[p(X)] for X a standard Gaussian vector."""
    total = 0.0
    for mono, coef in p.items():
        total += coef * gaussian_monomial_moment(mono)
    return total
