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

from .bases import OperatorBasis, hermitian_basis
from .core import as_matrix, stack
from .schmidt import OperatorSchmidt
from .tolerances import ATOL


@dataclass(frozen=True)
class DiagonalScaling:
    """A positive diagonal scaling of Schmidt-frame coefficient vectors."""

    r: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1 or len(r) == 0:
            raise ValueError("r must be a nonempty 1-d array")
        if np.any(r <= 0) or not np.all(np.isfinite(r)):
            raise ValueError("diagonal entries must be strictly positive and finite")
        r = r.copy()
        r.setflags(write=False)
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

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.D,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.D},)")
        return self.r * v

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.D,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.D},)")
        return v / self.r


def scaled_vec_norm(v, scaling: DiagonalScaling, inverse: bool = False) -> float:
    """||R v||_2, or ||R^-1 v||_2 when ``inverse`` is set."""
    w = scaling.apply_inverse(v) if inverse else scaling.apply(v)
    return float(np.linalg.norm(w))


def lambda_norm(x, lam, basis: OperatorBasis | None = None) -> float:
    """2-norm of an operator after an invertible linear transformation.

    ``lam`` is the matrix of the transformation over an orthonormal operator
    frame derived from ``basis`` (the Hermitian basis of matching dimension
    by default).  The norm of x is then ||lam c||_2 where c are the
    coefficients of x in that frame.
    """
    x = as_matrix(x, "x")
    d = x.shape[0]
    if x.shape != (d, d):
        raise ValueError("x must be square")
    if basis is None:
        basis = hermitian_basis(d)
    if basis.dim != d or not basis.complete:
        raise ValueError("basis must be complete and match the dimension of x")
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (d * d, d * d):
        raise ValueError(f"lam has shape {lam.shape}, expected {(d * d, d * d)}")
    if np.linalg.cond(lam) > 1e12:
        raise ValueError("lam is not invertible (condition number too large)")
    scale = np.sqrt(basis.normalization)
    coeffs = basis.coefficients(x) * scale  # coefficients in the kappa=1 frame
    return float(np.linalg.norm(lam @ coeffs))


def cross_norm_value(os: OperatorSchmidt, scaling: DiagonalScaling | None = None) -> float:
    """Value of the (R, R^-1) cross norm: the sum of Schmidt coefficients.

    The lower bound sum_i s_i holds for every product decomposition and is
    attained, for every positive diagonal R, by the constructions in
    :mod:`minsep.decompositions`; the value is therefore independent of R.
    """
    if scaling is not None and scaling.D != os.D:
        raise ValueError(f"scaling has size {scaling.D}, expected {os.D}")
    return os.lambda_total


def operator_coefficients(ops, frame, conjugate: bool = False) -> list[np.ndarray]:
    """Project operators onto an orthonormal operator frame.

    Returns, for each operator O, the vector of tr(F_i^dag O) (conjugated
    when ``conjugate`` is set, matching the B-side convention
    B = sum_i conj(b_i) Y_i).  Raises if any operator has a component
    outside the span of the frame.
    """
    ops = [as_matrix(op, f"ops[{k}]") for k, op in enumerate(ops)]
    d = np.shape(frame[0])[0]
    vo = stack(ops, d).reshape(len(ops), d * d)
    vf = stack(frame, d).reshape(len(frame), -1)
    c = vo @ vf.conj().T  # row k: tr(F_i^dag O_k)
    res = np.linalg.norm(vo - c @ vf, axis=1)
    outside = np.flatnonzero(res > ATOL * np.maximum(1.0, np.linalg.norm(vo, axis=1)))
    if outside.size:
        k = outside[0]
        raise ValueError(
            f"operator {k} lies outside the span of the Schmidt frame "
            f"(projection residual {res[k]:.3e})"
        )
    return list(np.conj(c) if conjugate else c)


def decomposition_cost(dec, scaling: DiagonalScaling) -> float:
    """Cost sum_k p_k ||R a^k||_2 ||R^-1 b^k||_2 of a separable decomposition.

    The decomposition must carry coefficient vectors in the Schmidt frame
    of the target operator (see ``attach_coefficients``).
    """
    if dec.a_coeff is None or dec.b_coeff is None:
        raise ValueError("decomposition has no coefficient vectors; attach them first")
    total = 0.0
    for pk, a, b in zip(dec.p, dec.a_coeff, dec.b_coeff):
        total += pk * scaled_vec_norm(a, scaling) * scaled_vec_norm(b, scaling, inverse=True)
    return float(total)


def pair_cost(dec, norm_a, norm_b) -> float:
    """Cost sum_k p_k N_A(A^k) N_B(B^k) for arbitrary norm callables.

    This evaluates general transformed-norm cost functionals (the two sides
    need not be inverse to each other); no minimisation is attempted.
    """
    return float(sum(pk * norm_a(a) * norm_b(b) for pk, a, b in zip(dec.p, dec.A, dec.B)))
