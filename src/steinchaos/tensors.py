"""Symmetric tensors over a finite-dimensional Gram-metric space.

The abstract Hilbert space of an isonormal Gaussian family is modelled as
R^d equipped with an explicit positive semidefinite matrix G, so that
<e_i, e_j> = G[i, j].  Orthonormal models (G = I) and correlated models
(e.g. fractional-Brownian increment grids) share one code path.

A symmetric order-q tensor is stored as its full dense array of shape
(d,) * q, and contractions, symmetrization and arithmetic work on that array
directly.  The sorted-multi-index form is derived from it on demand
(``sorted_coeffs``): for each sorted multi-index J = (i_1 <= ... <= i_q) the
coefficient of the *symmetrized* basis tensor, which is the sum of the array
over all distinct orderings of J.  That form is the JSON exchange format and
drives Hermite evaluation; the dict constructor of ``SymKernel`` reads it.
Dense storage costs d^q floats, which stays small while orders do (q <= ~6);
``contract`` refuses a contraction whose d^(p+q-2r) output, with the two
working arrays of symmetrizing it, would not fit in the physical memory.

G enters in two places.  The public ``contract``, ``gram_inner`` and
``raw_norm_sq`` apply G to every paired axis, so they keep the Gram-metric
meaning on any space.  ``_orthonormal`` instead moves a kernel once into the
Cholesky frame (G = L L^T, every axis contracted with L), where G is the
identity; the bounds and Hermite evaluation work there, so each of their
contractions and norms takes the identity fast path.  That frame factors G,
so a bound on a non-identity space fills its ``cholesky_jitter``.
"""

from __future__ import annotations

import json
import math
import os
from decimal import Decimal
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "TensorError",
    "InvalidOrderError",
    "InvalidContractionError",
    "SpaceMismatchError",
    "OrderMismatchError",
    "GramSpace",
    "SymKernel",
    "tensor_power",
    "symmetrize",
    "sorted_coeffs",
    "contract",
    "gram_inner",
    "raw_norm_sq",
]

# Relative PSD tolerance for Gram validation; Cholesky jitter never exceeds
# 1e-12 (scaled by the largest diagonal entry).
PSD_RTOL = 1e-10
MAX_JITTER = 1e-12
# SymKernel.from_dense tolerates asymmetry up to this fraction of the
# largest entry (rounding in the caller's arithmetic), and no more.
SYMMETRY_RTOL = 1e-12


class TensorError(Exception):
    """Base class for tensor-algebra failures."""


class InvalidOrderError(TensorError):
    """Raised for negative or otherwise impossible tensor orders."""


class InvalidContractionError(TensorError):
    """Raised when the contraction index r is outside [0, min(p, q)]."""


class SpaceMismatchError(TensorError):
    """Raised when two kernels do not live over the same Gram space."""


class OrderMismatchError(TensorError):
    """Raised when an inner product pairs kernels of different orders."""


def _integral(values, what: str) -> np.ndarray:
    """values as an int64 array; TensorError unless every entry is an integer
    (an integral float such as 1.0 reads as 1, 2.5 is refused)."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past 1e308
        raise TensorError(f"{what} must be numeric: {exc}") from None
    exact = (np.abs(arr) < 2.0**53) & (arr == np.trunc(arr))  # False for NaN and inf
    if not exact.all():
        raise TensorError(f"{what} must be integers, got {float(arr[~exact].flat[0])!r}")
    return arr.astype(np.int64)


def _integer(value, what: str) -> int:
    """One integer, read as strictly as ``_integral`` reads an array."""
    arr = _integral(value, what)
    if arr.ndim:
        raise TensorError(f"{what} must be a single integer")
    return int(arr)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _contraction_bytes(dim: int, p: int, q: int, r: int) -> int:
    """Bytes of the order p + q - 2r array of a contraction and of the two
    working arrays of its size that ``symmetrize`` holds: 3 x 8 d^(p+q-2r)."""
    return 24 * dim ** (p + q - 2 * r)


def _orderings(index: np.ndarray) -> np.ndarray:
    """q!/prod_k m_k! for each row of an (E, q) array of sorted multi-indices:
    the number of distinct orderings, m_k the run lengths of equal entries."""
    # count: orderings of the first j + 1 entries; run: entry j's place in
    # its run of equal entries; each step multiplies by (j + 1)/run exactly
    count = np.ones(index.shape[0], dtype=np.int64)
    run = count
    for j in range(1, index.shape[1]):
        run = np.where(index[:, j] == index[:, j - 1], run + 1, 1)
        count = count * (j + 1) // run
    return count


def sorted_coeffs(dense: np.ndarray) -> dict[tuple[int, ...], float]:
    """Sorted-multi-index form of a symmetric array, in lexicographic order.

    Maps each sorted multi-index J with a nonzero entry to that entry times
    the number of distinct orderings of J; zeros are dropped.
    """
    arr = np.asarray(dense, dtype=float)
    dim = max(arr.shape, default=1)
    up = np.arange(dim)[:, None] <= np.arange(dim)  # up[i, j] = i <= j
    keep = arr != 0.0
    for k in range(arr.ndim - 1):  # i_k <= i_{k+1}, broadcast over the other axes
        keep &= up.reshape(up.shape + (1,) * (arr.ndim - 2 - k))
    at = keep.reshape(-1).nonzero()[0]  # row-major, i.e. lexicographic, order
    index = at[:, None] // dim ** np.arange(arr.ndim - 1, -1, -1) % dim
    return dict(zip(map(tuple, index.tolist()), (arr.reshape(-1)[at] * _orderings(index)).tolist()))


def _jittered_cholesky(
    matrix: np.ndarray, start: float, ceiling: float, failure: Exception
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of matrix + jitter * max|diag| * I, and the jitter.

    The jitter is 0 first, then start, then ten times the last try; failure
    is raised once it would exceed ceiling.
    """
    scale = float(np.abs(np.diag(matrix)).max()) or 1.0
    jitter = 0.0
    while True:
        try:
            shifted = matrix + jitter * scale * np.eye(matrix.shape[0])
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            jitter = start if jitter == 0.0 else jitter * 10.0
            if jitter > ceiling:
                raise failure from None


class GramSpace:
    """Finite-dimensional model of the Hilbert space: R^d with metric G."""

    __slots__ = ("dim", "gram", "_chol", "_jitter", "_is_identity")

    def __init__(self, gram: np.ndarray | Iterable[Iterable[float]]):
        try:
            g = np.array(gram, dtype=float)
        except (TypeError, ValueError) as exc:  # non-numeric or ragged
            raise TensorError(f"gram must be a numeric square matrix: {exc}") from None
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
            raise TensorError(f"gram must be a square matrix, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise TensorError("gram entries must be finite")
        if not np.array_equal(g, g.T):
            raise TensorError("gram matrix must be exactly symmetric")
        self._is_identity = bool(np.array_equal(g, np.eye(g.shape[0])))
        if not self._is_identity:  # the identity is positive definite
            scale = float(np.abs(g).max()) or 1.0
            eigmin = float(np.linalg.eigvalsh(g).min())
            if eigmin < -PSD_RTOL * scale:
                raise TensorError(
                    f"gram matrix is not positive semidefinite: min eigenvalue {eigmin:g}"
                )
        self.dim = int(g.shape[0])
        self.gram = g
        self.gram.setflags(write=False)
        self._chol: np.ndarray | None = None
        self._jitter: float | None = None

    @classmethod
    def standard(cls, dim: int) -> "GramSpace":
        """Orthonormal model: G = I_dim."""
        return cls(np.eye(int(dim)))

    @property
    def is_identity(self) -> bool:
        return self._is_identity

    def cholesky(self) -> np.ndarray:
        """Lower-triangular L with L L^T = G.

        Numerically borderline matrices get a diagonal jitter of at most
        1e-12 (relative to the largest diagonal entry); ``cholesky_jitter``
        records the one applied.
        """
        if self._chol is None:
            self._chol, self._jitter = _jittered_cholesky(
                self.gram,
                1e-16,
                MAX_JITTER,
                TensorError("Cholesky failed within the permitted jitter budget"),
            )
        return self._chol

    @property
    def cholesky_jitter(self) -> float | None:
        """Relative diagonal jitter of the Cholesky factor: None until
        ``cholesky()`` has run, 0.0 when the Gram matrix factored as given."""
        return self._jitter

    def same_as(self, other: "GramSpace") -> bool:
        return self is other or (
            self.dim == other.dim and np.array_equal(self.gram, other.gram)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "identity" if self._is_identity else "general"
        return f"GramSpace(dim={self.dim}, {tag})"


def _check_same_space(f: "SymKernel", g: "SymKernel") -> None:
    if not f.space.same_as(g.space):
        raise SpaceMismatchError("kernels live over different Gram spaces")


class SymKernel:
    """Symmetric order-q tensor over a GramSpace, stored as its dense array.

    ``to_dense()`` is the read-only array of shape (d,) * q (0-d for
    q = 0) and the only stored state.  ``coeffs`` is derived from it on
    demand by ``sorted_coeffs``, the form that JSON, Hermite evaluation and
    tests use; no bound, contraction or symmetrization reads it.

    ``SymKernel(space, q, coeffs)`` is the checked entry point for outside
    input in that sorted form: ``coeffs[J]`` is the coefficient of the
    symmetrized basis tensor of the sorted multi-index J, and each of the
    distinct orderings of J receives ``coeffs[J] / multiplicity(J)``.
    """

    __slots__ = ("space", "order", "_dense")

    def __init__(
        self, space: GramSpace, order: int, coeffs: Mapping[tuple[int, ...], float]
    ):
        order = _integer(order, "order")
        if order < 0:
            raise InvalidOrderError(f"order must be >= 0, got {order}")
        try:
            arr = np.zeros((space.dim,) * order)
        except (ValueError, MemoryError) as exc:  # over numpy's 64 axes, or no room
            raise TensorError(f"a kernel of {space.dim}^{order} entries cannot be "
                              f"allocated: {exc}") from None
        if coeffs:
            keys = list(coeffs)
            index = _integral(keys, "multi-index entries")  # refuses ragged ones too
            try:
                values = np.array(list(coeffs.values()), dtype=float)
            except (TypeError, ValueError) as exc:
                raise TensorError(f"kernel values must be numeric: {exc}") from None
            if index.shape != (len(keys), order) or values.shape != (len(keys),):
                raise TensorError(f"every multi-index needs length {order} and a scalar value")
            if not np.isfinite(values).all():
                raise TensorError(f"kernel value {values[~np.isfinite(values)][0]} is not finite")
            bad = ((index < 0) | (index >= space.dim)).any(axis=1)
            if bad.any():
                raise TensorError(
                    f"multi-index {keys[bad.argmax()]} out of range [0, {space.dim})"
                )
            bad = (index[:, 1:] < index[:, :-1]).any(axis=1)
            if bad.any():
                raise TensorError(f"multi-index {keys[bad.argmax()]} is not sorted")
            at = index @ (space.dim ** np.arange(order - 1, -1, -1))  # row-major offsets
            arr.reshape(-1)[at] = values / _orderings(index)
            filled = np.zeros(arr.shape, dtype=bool)  # the positions written so far
            filled.reshape(-1)[at] = True
            # copy to every ordering along symmetrize's coset walk: once the
            # first k axes are closed under permutation, swapping axis k with
            # each of them closes the first k + 1
            for k in range(1, order):
                for i in range(k):
                    take = filled.swapaxes(i, k) > filled  # filled there, not here
                    arr[take] = arr.swapaxes(i, k)[take]
                    filled |= take
        self._set(space, arr)

    def _set(self, space: GramSpace, arr: np.ndarray) -> None:
        self.space = space
        self.order = arr.ndim
        self._dense = np.asarray(arr)  # order 0 arithmetic yields numpy scalars
        self._dense.setflags(write=False)

    @classmethod
    def _wrap(cls, space: GramSpace, arr: np.ndarray) -> "SymKernel":
        """Kernel owning `arr`: symmetric up to rounding, referenced nowhere else."""
        kernel = cls.__new__(cls)
        kernel._set(space, arr)
        return kernel

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, space: GramSpace, order: int) -> "SymKernel":
        return cls(space, order, {})

    @classmethod
    def from_dense(cls, space: GramSpace, dense: np.ndarray) -> "SymKernel":
        """Build from a symmetric dense array of shape (d,) * q (copied).

        Raises TensorError if swapping any two axes moves an entry by more
        than SYMMETRY_RTOL times the largest entry.
        """
        arr = np.array(dense, dtype=float)
        if any(s != space.dim for s in arr.shape):
            raise TensorError(f"dense shape {arr.shape} incompatible with dim {space.dim}")
        if arr.ndim > 1:
            tol = SYMMETRY_RTOL * float(np.abs(arr).max())
            for axis in range(arr.ndim - 1):
                if float(np.abs(arr - np.swapaxes(arr, axis, axis + 1)).max()) > tol:
                    raise TensorError("dense array is not symmetric")
        return cls._wrap(space, arr)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Full tensor of shape (d,) * order (scalar array for order 0)."""
        return self._dense

    @property
    def coeffs(self) -> dict[tuple[int, ...], float]:
        """Sorted-multi-index coefficients, derived by ``sorted_coeffs``."""
        return sorted_coeffs(self._dense)

    def norm(self) -> float:
        return math.sqrt(max(gram_inner(self, self), 0.0))

    # ------------------------------------------------------------------
    # linear structure
    # ------------------------------------------------------------------

    def _binary(self, other: "SymKernel", op) -> "SymKernel":
        _check_same_space(self, other)
        if self.order != other.order:
            raise OrderMismatchError("cannot add kernels of different orders")
        return SymKernel._wrap(self.space, op(self._dense, other._dense))

    def __add__(self, other: "SymKernel") -> "SymKernel":
        return self._binary(other, np.add)

    def __sub__(self, other: "SymKernel") -> "SymKernel":
        return self._binary(other, np.subtract)

    def __mul__(self, scalar: float) -> "SymKernel":
        return SymKernel._wrap(self.space, float(scalar) * self._dense)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymKernel(order={self.order}, dim={self.space.dim})"

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "dim": self.space.dim,
            "order": self.order,
            "entries": [[list(k), v] for k, v in self.coeffs.items()],
            "gram": self.space.gram.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict, space: GramSpace | None = None) -> "SymKernel":
        try:
            if space is None:
                space = GramSpace(obj["gram"])
            dim, order = _integer(obj["dim"], "dim"), obj["order"]
            coeffs = {tuple(idx): float(val) for idx, val in obj["entries"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise TensorError(f"malformed kernel object: {exc!r}") from None
        if len(coeffs) < len(obj["entries"]):  # [0, 1] and [0, 1.0] are one key
            raise TensorError("kernel entries list a multi-index more than once")
        if space.dim != dim:
            raise TensorError("kernel dim does not match the supplied space")
        return cls(space, order, coeffs)

    @classmethod
    def from_json(cls, text: str, space: GramSpace | None = None) -> "SymKernel":
        return cls.from_json_obj(json.loads(text), space)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def tensor_power(space: GramSpace, h: np.ndarray, q: int) -> SymKernel:
    """q-fold tensor power h ⊗ ... ⊗ h; symmetric up to rounding."""
    if q < 0:
        raise InvalidOrderError(f"tensor power needs q >= 0, got {q}")
    vec = np.asarray(h, dtype=float)
    if vec.shape != (space.dim,):
        raise TensorError(f"vector shape {vec.shape} incompatible with dim {space.dim}")
    arr = np.array(1.0)
    for _ in range(q):
        arr = np.multiply.outer(arr, vec)
    return SymKernel._wrap(space, arr)


def symmetrize(space: GramSpace, raw: np.ndarray) -> SymKernel:
    """Average a raw order-q tensor over all q! index permutations.

    Uses the coset recursion S_k = (1/k) sum_i (i, k-1) S_{k-1}: once the
    first k-1 axes are symmetric, averaging the k-th axis into each position
    finishes the job in O(q^2) transposes instead of q!.  Beside raw it
    holds two arrays of raw's size at a time.
    """
    sym = np.array(raw, dtype=float)
    for k in range(2, sym.ndim + 1):
        acc = sym.copy()
        for i in range(k - 1):
            acc += np.swapaxes(sym, i, k - 1)
        acc /= k
        sym = acc
    return SymKernel._wrap(space, sym)


def _orthonormal(f: SymKernel) -> SymKernel:
    """f in the orthonormal frame of its space, over the identity space.

    Every axis is contracted with the Cholesky factor L of G = L L^T, so
    contractions, symmetrization and norms of the result under G = I equal
    the Gram-metric ones of f (up to the jitter of ``cholesky``).  On an
    identity space f itself is returned.
    """
    if f.space.is_identity:
        return f
    arr = _contract_tail(f.to_dense(), f.space.cholesky(), f.order)
    return SymKernel._wrap(GramSpace.standard(f.space.dim), arr)


def _contract_tail(arr: np.ndarray, matrix: np.ndarray, naxes: int) -> np.ndarray:
    """arr with each of its trailing `naxes` axes contracted with the rows of
    matrix (arr[..., i, ...] -> sum_i arr[..., i, ...] matrix[i, j]), in order."""
    first = arr.ndim - naxes
    for _ in range(naxes):
        # tensordot consumes axis `first` and appends its image at the end,
        # so repeating walks through the original tail axes
        arr = np.tensordot(arr, matrix, axes=([first], [0]))
    return arr


def _apply_gram(space: GramSpace, arr: np.ndarray, naxes: int) -> np.ndarray:
    """Multiply the trailing `naxes` axes of arr by G, preserving axis order."""
    return arr if space.is_identity else _contract_tail(arr, space.gram, naxes)


def contract(f: SymKernel, g: SymKernel, r: int) -> np.ndarray:
    """r-th contraction f ⊗_r g, pairing r slots through the Gram metric.

    Returns the raw (generally non-symmetric) dense tensor of order
    p + q - 2r; a plain float for full contractions.  r = 0 is the tensor
    product (a tensordot pairing no axes), r = p = q the inner product.  A
    contraction whose _contraction_bytes exceed the physical memory is
    refused with TensorError before any array is formed.
    """
    _check_same_space(f, g)
    if r < 0 or r > min(f.order, g.order):
        raise InvalidContractionError(
            f"contraction index {r} outside [0, {min(f.order, g.order)}]"
        )
    need = _contraction_bytes(f.space.dim, f.order, g.order, r)
    budget = _physical_memory()
    if budget is not None and need > budget:
        raise TensorError(f"contraction {f.order} x_{r} {g.order} at d = {f.space.dim} needs "
                          f"~{Decimal(need):.2g} bytes > memory budget "
                          f"{Decimal(budget):.2g} bytes (the physical memory)")
    out = np.tensordot(_apply_gram(f.space, f.to_dense(), r), g.to_dense(),
                       axes=(list(range(f.order - r, f.order)), list(range(g.order - r, g.order))))
    return float(out) if out.ndim == 0 else out


def gram_inner(f: SymKernel, g: SymKernel) -> float:
    """<f, g> in the induced metric of the order-q tensor power."""
    _check_same_space(f, g)
    if f.order != g.order:
        raise OrderMismatchError(
            f"inner product needs equal orders, got {f.order} and {g.order}"
        )
    return float(contract(f, g, f.order))


def raw_norm_sq(space: GramSpace, raw: np.ndarray) -> float:
    """Squared norm of a raw dense tensor under the induced Gram metric."""
    arr = np.asarray(raw, dtype=float)
    transformed = _apply_gram(space, arr, arr.ndim)
    return float(np.tensordot(arr, transformed, axes=arr.ndim))
