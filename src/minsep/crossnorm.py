"""Linearly transformed 2-norms and the associated cross-norm machinery.

A single-system norm is obtained by pushing an operator through an
invertible linear map and taking the 2-norm of the output.  On bipartite
operators the corresponding cross norm is the infimum of
sum_k p_k ||R a^k|| ||R^-1 b^k|| over product decompositions, where a^k and
b^k are coefficient vectors in the Schmidt frames of the target operator.
For positive diagonal R that infimum equals the sum of the Schmidt
coefficients, independent of R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import hermitian_basis
from .core import as_matrix, frozen
from .schmidt import OperatorSchmidt


@dataclass(frozen=True, eq=False)
class DiagonalScaling:
    """A positive diagonal scaling of Schmidt-frame coefficient vectors."""

    r: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = frozen(self.r, float)
        if r.ndim != 1 or len(r) == 0:
            raise ValueError("r must be a nonempty 1-d array")
        if np.any(r <= 0) or not np.all(np.isfinite(r)):
            raise ValueError("diagonal entries must be strictly positive and finite")
        object.__setattr__(self, "r", r)

    @property
    def D(self) -> int:
        return len(self.r)

    @classmethod
    def identity(cls, D: int) -> "DiagonalScaling":
        return cls(np.ones(D))

    @classmethod
    def sqrt_s(cls, os: OperatorSchmidt) -> "DiagonalScaling":
        """The scaling diag(sqrt(s_i)) built from a Schmidt spectrum."""
        return cls(np.sqrt(os.s))


def _scaled_norms(coeffs, scaling: DiagonalScaling, inverse: bool = False) -> np.ndarray:
    """||R v||_2, or ||R^-1 v||_2 when ``inverse`` is set, of every row v of
    a stacked (N, D) family at once."""
    v = np.asarray(coeffs, dtype=complex)
    if v.shape[1:] != (scaling.D,):
        raise ValueError(f"vector has shape {v.shape[1:]}, expected ({scaling.D},)")
    x = v / scaling.r if inverse else scaling.r * v
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))  # np.linalg.norm(x, axis=1), unwrapped


def lambda_norm(x, lam) -> float:
    """2-norm of an operator after an invertible linear transformation.

    ``lam`` is the matrix of the transformation over the orthonormal frame
    C_i / sqrt(d) of the Hermitian basis C = :func:`hermitian_basis` of
    x's dimension d.  The norm of x is then ||lam c||_2 where c are the
    coefficients of x in that frame.
    """
    x = as_matrix(x, "x")
    d = x.shape[0]
    if x.shape != (d, d):
        raise ValueError("x must be square")
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (d * d, d * d):
        raise ValueError(f"lam has shape {lam.shape}, expected {(d * d, d * d)}")
    if np.linalg.cond(lam) > 1e12:
        raise ValueError("lam is not invertible (condition number too large)")
    coeffs = hermitian_basis(d).coefficients(x) * np.sqrt(d)  # in the orthonormal frame C_i / sqrt(d)
    return float(np.linalg.norm(lam @ coeffs))


def cross_norm_value(os: OperatorSchmidt) -> float:
    """Value of the (R, R^-1) cross norm: the sum of Schmidt coefficients.

    The lower bound sum_i s_i holds for every product decomposition and is
    attained, for every positive diagonal R, by the constructions in
    :mod:`minsep.decompositions`; the value is therefore independent of R.
    """
    return os.lambda_total


def decomposition_cost(dec, scaling: DiagonalScaling) -> float:
    """Cost sum_k p_k ||R a^k||_2 ||R^-1 b^k||_2 of a separable decomposition.

    a^k and b^k are the Schmidt-frame coefficient vectors that every construction in
    :mod:`minsep.decompositions` attaches; a decomposition read from a file has none.
    """
    if dec.a_coeff is None or dec.b_coeff is None:
        raise ValueError("decomposition has no coefficient vectors")
    na, nb = _scaled_norms(dec.a_coeff, scaling), _scaled_norms(dec.b_coeff, scaling, inverse=True)
    return float((dec.p * na * nb).sum())
