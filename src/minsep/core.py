"""Dense complex matrix arithmetic used throughout the package.

Everything here operates on complex128 ``numpy.ndarray`` objects, checked
against :mod:`minsep.tolerances` (one Hermiticity test, :func:`hermitian_mask`,
for a matrix or a family).  Two conventions carry the rest of the package:

* An operator sigma is identified with its row-major vectorisation
  vec(sigma) = ``sigma.reshape(-1)``, so tr(C^dag sigma) = vec(C)^dag vec(sigma)
  and a linear map on d x d operators is one d^2 x d^2 matrix acting on
  vec(sigma).  A family of N operators is one read-only (N, d, d) array
  (:class:`Family`), whose rows of vec(O_k) form an (N, d^2) matrix
  (``Family.vecs``); ``Family.tvecs`` is the one writer of the transposed
  layout, the rows vec(O_k^T), on which tr(O M) = vec(O) . vec(M^T).
* The realignment map permutes a bipartite operator (acting on A tensor B)
  into the ``dA^2 x dB^2`` matrix whose singular value decomposition
  produces the operator-Schmidt form; it sends A tensor B to
  vec(A) vec(B)^T, so a sum of products is one matrix product
  (:func:`product_sum`).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .tolerances import ATOL


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex128 array of finite numbers; ragged rows are named by the first misfit."""
    try:
        arr = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        rows = m if isinstance(m, (list, tuple)) else ()
        sized = [len(r) for r in rows if isinstance(r, (list, tuple)) or np.ndim(r) == 1]
        if rows and len(sized) == len(rows) and len(set(sized)) > 1:
            k = next(k for k, n in enumerate(sized) if n != sized[0])
            raise ValueError(f"{name} row {k} has length {sized[k]}, expected {sized[0]}") from exc
        raise ValueError(f"{name} has entries that are not numbers") from exc
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frozen(m, dtype=complex) -> np.ndarray:
    """A read-only C-ordered copy of ``m``, complex128 unless ``dtype`` says otherwise."""
    out = np.array(m, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


class Family(tuple):
    """A checked family (:func:`family`): the tuple of the read-only views of one complex
    (N, d, d) array, frozen in place, which ``np.asarray`` returns without a copy.  A construction
    wraps an array it has just computed from checked families: its residual gate rejects a NaN."""

    def __new__(cls, arr: np.ndarray):
        arr.setflags(write=False)
        fam = super().__new__(cls, arr)
        fam._array = arr
        return fam

    def __array__(self, dtype=None, copy=None):
        return np.array(self._array, dtype=dtype, copy=copy)

    @property
    def vecs(self) -> np.ndarray:
        """The rows vec(O_k) as a read-only (N, d^2) view of the array; (0, d^2) when empty."""
        n, d, _ = self._array.shape
        return self._array.reshape(n, d * d)

    @cached_property
    def tvecs(self) -> np.ndarray:
        """The rows vec(O_k^T) as a read-only (N, d^2) array, (0, d^2) when empty, built on first use."""
        n, d, _ = self._array.shape
        return frozen(self._array.transpose(0, 2, 1).reshape(n, d * d))


def family(ops, name: str, d: int | None = None) -> Family:
    """Check that every member is a finite (d, d) matrix, ``d`` defaulting to
    the first member's row count, and freeze the family as one read-only
    complex (N, d, d) array (:class:`Family`), which a checked Family of this
    ``d`` already is.  An error names the first offending member:
    ``X[2] has shape (3, 3), expected (2, 2)``.
    """
    if isinstance(ops, Family) and d in (None, ops._array.shape[1]):
        return ops
    try:
        arr = frozen(ops)
    except (TypeError, ValueError):  # differing shapes or non-numbers: the loop names a member
        arr = np.empty(0)
    for k, op in enumerate(ops if arr.ndim != 3 or arr.shape[1:] != (d or arr.shape[1],) * 2 else ()):
        shape = as_matrix(op, f"{name}[{k}]").shape
        d = shape[0] if d is None else d
        if shape != (d, d):
            raise ValueError(f"{name}[{k}] has shape {shape}, expected {(d, d)}")
    if not np.isfinite(arr).all():
        k = np.argmin(np.isfinite(arr).all(axis=(1, 2)))
        raise ValueError(f"{name}[{k}] contains non-finite entries")
    return Family(arr if len(arr) else arr.reshape(0, d or 0, d or 0))


def combine(coeffs, ops: np.ndarray) -> np.ndarray:
    """sum_k c_k O_k over a stacked (N, d, d) family, as one contraction.

    ``coeffs`` of shape (M, N) gives the M sums, stacked (M, d, d).
    """
    ops = np.asarray(ops)
    return (coeffs @ ops.reshape(len(ops), -1)).reshape(*coeffs.shape[:-1], *ops.shape[1:])


def realigned_sum(w, A, B) -> np.ndarray:
    """The realignment sum_k w_k vec(A_k) vec(B_k)^T of sum_k w_k A_k tensor B_k."""
    va = np.asarray(A, dtype=complex).reshape(len(A), -1)
    vb = np.asarray(B, dtype=complex).reshape(len(B), -1)
    return va.T @ (np.asarray(w)[:, None] * vb)


def product_sum(w, A, B) -> np.ndarray:
    """sum_k w_k A_k tensor B_k over nonempty families (:func:`realigned_sum`)."""
    return unrealign(realigned_sum(w, A, B), np.shape(A[0])[0], np.shape(B[0])[0])


def relative_residual(m, target) -> float:
    """||m - target|| / ||target|| in the 2-norm, by dot products.  It gates ``RECON_TOL``, as ``not
    residual <= RECON_TOL`` so that a NaN fails; the records keep it and the CLI claims report it."""
    diff = m - target
    return math.sqrt(np.vdot(diff, diff).real) / max(math.sqrt(np.vdot(target, target).real), 1e-300)


def hermitian_mask(ops) -> np.ndarray:
    """M = M^dag within ``ATOL``: one bool for a (d, d) matrix, one per member of a family."""
    ops = np.asarray(ops)
    return np.abs(ops - np.conj(np.swapaxes(ops, -1, -2))).max(axis=(-2, -1)) <= ATOL


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def realign(rho, dA: int, dB: int) -> np.ndarray:
    """Permute a bipartite operator into its dA^2 x dB^2 realignment.

    Row index (i, k) collects both A indices (ket then bra, row-major),
    column index (j, l) both B indices, so that
    ``M[(i,k),(j,l)] = <ij| rho |kl>``.  The map is a bijective entry
    permutation, so it preserves the 2-norm, and a product operator
    realigns to the rank-1 matrix vec(a) vec(b)^T.
    """
    rho = as_matrix(rho, "rho")
    if rho.shape != (dA * dB, dA * dB):
        raise ValueError(
            f"operator has shape {rho.shape}, expected {(dA * dB, dA * dB)} "
            f"for local dimensions ({dA}, {dB})"
        )
    return rho.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA**2, dB**2)


def unrealign(m, dA: int, dB: int) -> np.ndarray:
    """Inverse of :func:`realign`."""
    m = as_matrix(m, "m")
    if m.shape != (dA**2, dB**2):
        raise ValueError(
            f"realigned matrix has shape {m.shape}, expected {(dA**2, dB**2)}"
        )
    return m.reshape(dA, dA, dB, dB).transpose(0, 2, 1, 3).reshape(dA * dB, dA * dB)

