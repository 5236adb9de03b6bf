"""Multiple Wiener-Ito integrals over the finite Gaussian model.

A square-integrable functional with finite chaos expansion is represented
as F = c0 + sum_i I_{q_i}(f_i) with symmetric kernels f_i of strictly
increasing orders.  Everything a fixed chaos admits in closed form is
implemented here: pathwise evaluation through Hermite polynomials, the
multiplication formula, the chaos expansion of <DF, -DL^{-1}F> and of
||DF||^2, the Ornstein-Uhlenbeck semigroup action, and an exact moment
oracle by Wick expansion.

The multiplication formula and the two Malliavin expansions are one sum,
sum_{f, g, r} w(p, q, r) I_{p+q-2r}(f ~x_r g) over the terms of two chaos
vectors, computed by a single routine; they differ only in the weight w
and the lowest contraction index r.

Evaluation maps the symmetrized basis tensor of a multi-index with
multiplicities (m_1, ..., m_k) to the product of monic Hermite polynomials
of the coordinates; for a non-identity Gram matrix the kernels are first
rotated into an orthonormalizing frame through a Cholesky factor, so the
Hermite mapping stays exact.  Pathwise evaluation and the coordinate
polynomial of the Wick oracle walk the same list of Hermite terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterable, Iterator

import numpy as np

from . import wick
from .tensors import (
    GramSpace,
    SymKernel,
    _orthonormal,
    contract,
    gram_inner,
    sorted_coeffs,
    symmetrize,
)

__all__ = [
    "ChaosError",
    "ComplexityError",
    "ChaosVector",
    "hermite",
    "exact_moment",
    "multiply",
    "product",
    "malliavin_inner",
    "derivative_norm_sq",
    "ou_semigroup",
]

# E[F^s] pairs the monomials of F^a with those of F^b (a = floor(s/2),
# b = s - a) in one Gaussian moment matrix.  The term guard caps the matrix
# entries C(d + a deg, d) * C(d + b deg, d), which also bound the last
# convolution forming F^b.  At 1e7 it admits d = 6, deg = 4, s = 4 (9.0e6
# entries, ~0.3 s) and refuses d = 7 (4.1e7).  The degree needs no cap of its
# own: what a float cannot hold (F^s of a large norm, or (k - 1)!! from
# k = 302 on) makes the value inf or nan, which is refused.
WICK_TERM_GUARD = 10_000_000
# The largest order q whose q! a float holds (170! ~ 7.3e306; 171! overflows):
# hermite divides by q!, and so do the Breuer-Major sigma and chaos scale.
MAX_FACTORIAL_ORDER = 170


class ChaosError(Exception):
    """Base class for chaos-calculus failures."""


class ComplexityError(ChaosError):
    """Raised when the Wick oracle would exceed its term guard or the float range."""


def _monic_hermite_values(q: int, x: np.ndarray) -> np.ndarray:
    """He_q(x) by the recurrence He_{k+1} = x He_k - k He_{k-1}, vectorized.
    x is only read, and the result is always new (a copy at q = 1), as
    ``hermite`` divides it in place."""
    x = np.asarray(x, dtype=float)
    if q == 0:
        return np.ones_like(x)
    if q == 1:
        return x.copy()
    prev, cur = 1.0, x
    for k in range(1, q):
        prev, cur = cur, x * cur - k * prev
    return cur


def hermite(q: int, x: float | np.ndarray) -> float | np.ndarray:
    """Hermite polynomial with the 1/q! normalization: H_2(x) = (x^2-1)/2."""
    if q < 0:
        raise ChaosError(f"Hermite order must be >= 0, got {q}")
    if q > MAX_FACTORIAL_ORDER:
        raise ChaosError(f"Hermite order must be <= {MAX_FACTORIAL_ORDER}: q! must fit in a float")
    vals = _monic_hermite_values(q, np.asarray(x, dtype=float))
    vals /= math.factorial(q)
    return float(vals) if np.ndim(x) == 0 else vals


@dataclass(frozen=True)
class ChaosVector:
    """Finite chaos expansion c0 + sum I_{q_i}(f_i), one term per order."""

    space: GramSpace
    constant: float
    terms: tuple[SymKernel, ...]

    def __post_init__(self):
        orders = [k.order for k in self.terms]
        if any(q < 1 for q in orders):
            raise ChaosError("chaos terms must have order >= 1")
        if sorted(orders) != orders or len(set(orders)) != len(orders):
            raise ChaosError("terms must have strictly increasing orders")
        for k in self.terms:
            if not k.space.same_as(self.space):
                raise ChaosError("all kernels must live over the shared space")

    @classmethod
    def build(
        cls,
        space: GramSpace,
        constant: float = 0.0,
        kernels: Iterable[SymKernel] = (),
    ) -> "ChaosVector":
        items = sorted((k for k in kernels if k.to_dense().any()), key=lambda k: k.order)
        return cls(space, float(constant), tuple(items))

    @classmethod
    def single(cls, kernel: SymKernel) -> "ChaosVector":
        """The single multiple integral I_q(f)."""
        return cls.build(kernel.space, 0.0, [kernel])

    # ------------------------------------------------------------------

    def kernel_of_order(self, q: int) -> SymKernel | None:
        for k in self.terms:
            if k.order == q:
                return k
        return None

    @property
    def max_order(self) -> int:
        return self.terms[-1].order if self.terms else 0

    def second_moment(self) -> float:
        """E[F^2] from chaos orthogonality."""
        return self.constant**2 + sum(
            math.factorial(k.order) * gram_inner(k, k) for k in self.terms
        )

    def __add__(self, other: "ChaosVector") -> "ChaosVector":
        if not self.space.same_as(other.space):
            raise ChaosError("chaos vectors live over different spaces")
        merged: dict[int, SymKernel] = {k.order: k for k in self.terms}
        for k in other.terms:
            merged[k.order] = merged[k.order] + k if k.order in merged else k
        return ChaosVector.build(
            self.space, self.constant + other.constant, merged.values()
        )

    def __mul__(self, scalar: float) -> "ChaosVector":
        s = float(scalar)
        return ChaosVector.build(
            self.space, s * self.constant, [s * k for k in self.terms]
        )

    __rmul__ = __mul__

    def __sub__(self, other: "ChaosVector") -> "ChaosVector":
        return self + (-1.0) * other

    # ------------------------------------------------------------------

    def _hermite_terms(self) -> Iterator[tuple[float, tuple[tuple[int, int], ...]]]:
        """Yield (coeff, ((var, multiplicity), ...)) for every basis term of
        the kernels in the Cholesky-orthonormalized frame; the term stands for
        coeff * prod He_multiplicity(x_var)."""
        for kernel in self.terms:
            for index, coeff in sorted_coeffs(_orthonormal(kernel).to_dense()).items():
                yield coeff, tuple(
                    (var, sum(1 for _ in group))
                    for var, group in itertools.groupby(index)
                )

    def eval(self, xi: np.ndarray) -> float | np.ndarray:
        """Pathwise value at standard-normal coordinates of the orthonormal frame."""
        pts = np.asarray(xi, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.space.dim:
            raise ChaosError(
                f"coordinate dimension {pts.shape[1]} != model dimension {self.space.dim}"
            )
        total = np.full(pts.shape[0], self.constant)
        for coeff, factors in self._hermite_terms():
            factor = np.full(pts.shape[0], coeff)
            for var, mult in factors:
                factor = factor * _monic_hermite_values(mult, pts[:, var])
            total += factor
        return float(total[0]) if single else total

    def to_polynomial(self) -> wick.Poly:
        """Polynomial in the i.i.d. coordinates of the orthonormal frame."""
        d = self.space.dim
        poly = wick.poly_const(d, self.constant)
        for coeff, factors in self._hermite_terms():
            term = wick.poly_const(d, coeff)
            for var, mult in factors:
                term = wick.poly_mul(term, wick.monic_hermite_poly(d, var, mult))
            poly = wick.poly_add(poly, term)
        return poly

    # ------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "constant": self.constant,
            "terms": [
                {"order": k.order, "kernel": k.to_json_obj()} for k in self.terms
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict, space: GramSpace) -> "ChaosVector":
        kernels = [
            SymKernel.from_json_obj(t["kernel"], space) for t in obj["terms"]
        ]
        return cls.build(space, float(obj["constant"]), kernels)


def exact_moment(F: ChaosVector, s: int) -> float:
    """Exact E[F^s] through Wick pairing of the coordinate polynomial."""
    if s < 0:
        raise ChaosError(f"moment order must be >= 0, got {s}")
    if s == 0:
        return 1.0
    # F^k has at most C(d + k deg, d) monomials.  The messages format s and
    # the count as Decimals: a float overflows past 1e308, and str() refuses
    # ints of more than 4300 digits.
    d, a, degree = F.space.dim, s // 2, F.max_order
    entries = math.comb(d + a * degree, d) * math.comb(d + (s - a) * degree, d)
    if entries > WICK_TERM_GUARD:
        raise ComplexityError(
            f"E[F^s] at s = {Decimal(s):.3g}, dimension {d}, degree {degree} needs "
            f"~{Decimal(entries):.3g} moment-matrix entries, over the Wick guard "
            f"{WICK_TERM_GUARD:.0e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value = wick.poly_power_expectation(F.to_polynomial(), s)
    if not math.isfinite(value):
        raise ComplexityError(f"E[F^s] at s = {Decimal(s):.3g} is {value}: past the float range")
    return value


def _expand(
    F: ChaosVector, G: ChaosVector, weight: Callable[[int, int, int], int], r_min: int
) -> ChaosVector:
    """sum over terms f of F, g of G and r_min <= r <= min(p, q) of
    weight(p, q, r) I_{p+q-2r}(f ~x_r g); the order-0 results are the constant."""
    if not F.space.same_as(G.space):
        raise ChaosError("operands live over different spaces")
    constant = 0.0
    kernels: dict[int, SymKernel] = {}
    for f in F.terms:
        for g in G.terms:
            p, q = f.order, g.order
            for r in range(r_min, min(p, q) + 1):
                coeff = weight(p, q, r)
                raw = contract(f, g, r)
                order = p + q - 2 * r
                if order == 0:
                    constant += coeff * raw
                else:
                    term = coeff * symmetrize(F.space, raw)
                    kernels[order] = kernels[order] + term if order in kernels else term
    return ChaosVector.build(F.space, constant, kernels.values())


def _product_weight(p: int, q: int, r: int) -> int:
    """r! C(p, r) C(q, r): the multiplication-formula weight."""
    return math.factorial(r) * math.comb(p, r) * math.comb(q, r)


def _pairing_weight(p: int, q: int, r: int) -> int:
    """(r-1)! C(p-1, r-1) C(q-1, r-1): the weight of f ~x_r g in <DF, DG>/(pq)."""
    return math.factorial(r - 1) * math.comb(p - 1, r - 1) * math.comb(q - 1, r - 1)


def multiply(F: ChaosVector, G: ChaosVector) -> ChaosVector:
    """Chaos expansion of I_p(f) I_q(g) by the multiplication formula."""
    if any(X.constant != 0.0 or len(X.terms) != 1 for X in (F, G)):
        raise ChaosError("operand must be a single multiple integral I_q(f)")
    return _expand(F, G, _product_weight, 0)


def product(F: ChaosVector, G: ChaosVector) -> ChaosVector:
    """Product of two general chaos vectors: the constants times the other
    vector plus the multiplication formula over every pair of terms."""
    chaotic = _expand(F, G, _product_weight, 0)
    centered_F = ChaosVector(F.space, 0.0, F.terms)
    return F.constant * G + G.constant * centered_F + chaotic


def malliavin_inner(F: ChaosVector) -> ChaosVector:
    """Chaos expansion of <DF, -DL^{-1}F> for a centered chaos vector.

    For a single chaos I_q(f) this equals q^{-1} ||DF||^2, with constant
    term q! ||f||^2; for sums, the mixed contractions f_i x_r f_j enter with
    weight q_i (r-1)! binom(q_i-1, r-1) binom(q_j-1, r-1).
    """
    if F.constant != 0.0:
        raise ChaosError("malliavin_inner requires a centered input (constant 0)")
    return _expand(F, F, lambda p, q, r: p * _pairing_weight(p, q, r), 1)


def derivative_norm_sq(F: ChaosVector) -> ChaosVector:
    """Chaos expansion of ||DF||^2 (constant term sum q_i q_i! ||f_i||^2)."""
    if F.constant != 0.0:
        raise ChaosError("derivative_norm_sq requires a centered input")
    return _expand(F, F, lambda p, q, r: p * q * _pairing_weight(p, q, r), 1)


def ou_semigroup(F: ChaosVector, z: float) -> ChaosVector:
    """Ornstein-Uhlenbeck action: the order-q term is scaled by e^{-qz}."""
    if z < 0:
        raise ChaosError(f"semigroup time must be >= 0, got {z}")
    return ChaosVector.build(
        F.space,
        F.constant,
        [math.exp(-k.order * z) * k for k in F.terms],
    )
