"""Dense complex matrix arithmetic used throughout the package.

Everything here operates on plain ``numpy.ndarray`` objects with dtype
``complex128``.  Two conventions carry the rest of the package:

* An operator sigma is identified with its row-major vectorisation
  vec(sigma) = ``sigma.reshape(-1)``, so tr(C^dag sigma) = vec(C)^dag vec(sigma)
  and a linear map on d x d operators is one d^2 x d^2 matrix acting on
  vec(sigma).  A family of N operators stacks into one (N, d, d) array
  (:func:`stack`), whose rows of vec(O_k) form an (N, d^2) matrix.
* The realignment map permutes a bipartite operator (acting on A tensor B)
  into the ``dA^2 x dB^2`` matrix whose singular value decomposition
  produces the operator-Schmidt form; it sends A tensor B to
  vec(A) vec(B)^T, so a sum of products is one matrix product
  (:func:`product_sum`).
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import ATOL, SVD_RTOL


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex128 array and require finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def frob_norm(m: np.ndarray) -> float:
    """2-norm sqrt(tr(M^dag M)), i.e. the Frobenius norm.

    The sum of the squared real and imaginary parts is correctly rounded
    (``math.fsum``), so the result depends only on the multiset of entries,
    not on their order: any entry permutation, such as :func:`realign`,
    :func:`unrealign` or a transpose, leaves it bit-for-bit unchanged.  A
    BLAS dot product, as in ``np.linalg.norm``, adds in an order set by its
    blocking and can differ in the last ulp.
    """
    v = np.ascontiguousarray(m, dtype=complex).view(float)
    return math.sqrt(math.fsum((v * v).ravel().tolist()))


def frozen(m) -> np.ndarray:
    """A read-only complex128 copy of ``m``."""
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


def stack(ops, d: int) -> np.ndarray:
    """A family of d x d operators as one (N, d, d) array; (0, d, d) if empty."""
    return np.asarray(ops, dtype=complex).reshape(len(ops), d, d)


def combine(coeffs, ops: np.ndarray) -> np.ndarray:
    """sum_k c_k O_k over a stacked (N, d, d) family, as one contraction.

    ``coeffs`` of shape (M, N) gives the M sums, stacked (M, d, d).
    """
    return np.tensordot(coeffs, ops, axes=1)


def product_sum(w, A, B) -> np.ndarray:
    """sum_k w_k A_k tensor B_k over nonempty families, as one matrix product:
    its realignment is sum_k w_k vec(A_k) vec(B_k)^T.
    """
    dA, dB = np.shape(A[0])[0], np.shape(B[0])[0]
    va = stack(A, dA).reshape(len(A), -1)
    vb = stack(B, dB).reshape(len(B), -1)
    return unrealign(va.T @ (np.asarray(w)[:, None] * vb), dA, dB)


def is_hermitian(m: np.ndarray, tol: float = ATOL) -> bool:
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def realign(rho, dA: int, dB: int) -> np.ndarray:
    """Permute a bipartite operator into its dA^2 x dB^2 realignment.

    Row index (i, k) collects both A indices (ket then bra, row-major),
    column index (j, l) both B indices, so that
    ``M[(i,k),(j,l)] = <ij| rho |kl>``.  The map is a bijective entry
    permutation; in particular it preserves the 2-norm exactly (as computed
    by :func:`frob_norm`, which does not depend on entry order), and a
    product operator realigns to the rank-1 matrix vec(a) vec(b)^T.
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


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = U diag(s) V^dag``.

    Returns (U, s, V) with s nonincreasing and nonnegative and U, V having
    orthonormal columns.  Note the third factor is V itself, not V^dag.

    Raises ``np.linalg.LinAlgError`` if the underlying iteration fails to
    converge, which signals a numerically pathological input.
    """
    m = as_matrix(m, "m")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, dagger(vh)


def svd_residual(m: np.ndarray, u: np.ndarray, s: np.ndarray, v: np.ndarray) -> float:
    """Relative reconstruction residual of an SVD triple."""
    rec = (u * s) @ dagger(v)
    denom = max(frob_norm(m), 1e-300)
    return frob_norm(m - rec) / denom


def check_svd(m: np.ndarray, rtol: float = SVD_RTOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with the reconstruction residual verified against ``rtol``."""
    u, s, v = svd(m)
    res = svd_residual(m, u, s, v)
    if res > rtol:
        raise np.linalg.LinAlgError(
            f"SVD residual {res:.3e} exceeds relative tolerance {rtol:.1e}"
        )
    return u, s, v
