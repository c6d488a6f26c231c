"""Operator-Schmidt decomposition of bipartite states.

A state rho on A tensor B can be written rho = sum_i s_i X_i tensor Y_i
with s_i > 0 nonincreasing and {X_i}, {Y_i} Frobenius-orthonormal.  The
coefficients are the singular values of the realignment of rho.

A state is Hermitian, so the decomposition is computed in a Hermitian
product basis, where the coefficient matrix is real; the real SVD then
yields real orthogonal mixings of Hermitian operators, so every X_i and Y_i
comes out Hermitian even when the Schmidt spectrum is degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .bases import hermitian_basis
from .core import Family, family, frozen, hermitian_mask, product_sum, realigned_sum, relative_residual
from .states import BipartiteState
from .tolerances import RANK_CUTOFF, RECON_TOL


@dataclass(frozen=True, eq=False)
class OperatorSchmidt:
    """Schmidt coefficients and orthonormal local operator frames, from which ``realigned`` and
    ``hermitian`` (one flag per pair: X_i and Y_i both Hermitian within ``ATOL``) are derived."""

    dA: int
    dB: int
    s: np.ndarray = field(repr=False)
    X: tuple = field(repr=False)
    Y: tuple = field(repr=False)
    hermitian: tuple = field(init=False)
    realigned: np.ndarray = field(init=False, repr=False)  # sum_i s_i vec(X_i) vec(Y_i)^T
    residual: float | None = field(init=False, default=None, repr=False)  # relative, gated by operator_schmidt

    def __post_init__(self):
        s = frozen(self.s, float)
        if s.ndim != 1 or len(s) == 0:
            raise ValueError("s must be a nonempty 1-d array")
        if not np.isfinite(s).all():
            raise ValueError("Schmidt coefficients must be finite")
        if (s <= 0).any():
            raise ValueError("Schmidt coefficients must be strictly positive")
        if (s[1:] - s[:-1] > 1e-12).any():
            raise ValueError("Schmidt coefficients must be nonincreasing")
        if len(self.X) != len(s) or len(self.Y) != len(s):
            raise ValueError("X and Y must match the number of coefficients")
        if len(s) > min(self.dA**2, self.dB**2):
            raise ValueError("rank exceeds min(dA^2, dB^2)")
        X = family(self.X, "X", self.dA)
        Y = family(self.Y, "Y", self.dB)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "hermitian", tuple((hermitian_mask(X) & hermitian_mask(Y)).tolist()))
        realigned = realigned_sum(s, X, Y)
        realigned.setflags(write=False)
        object.__setattr__(self, "realigned", realigned)

    @property
    def D(self) -> int:
        """Operator-Schmidt rank."""
        return len(self.s)

    @property
    def lambda_total(self) -> float:
        return float(self.s.sum())

    @property
    def hermitisable(self) -> bool:
        return all(self.hermitian)


def _canonical_order(s, Xs, Ys):
    """Deterministic ordering and sign convention for Schmidt pairs.

    Pairs are sorted by decreasing coefficient; ties are broken by the
    lexicographic order of the (sign-fixed) vectorised X, entries compared as
    (real, imaginary) rounded to 10 decimals.  The sign of each pair is fixed
    so the first significant entry of vec(X) has positive real part (positive
    imaginary part if purely imaginary); Y flips with X, by negation: a
    product with -1.0 would turn an imaginary -0.0 into 0.0.  A C-ordered array
    given is flipped in place: :func:`_schmidt_hermitian` hands over its own.

    ``s`` comes nonincreasing, so if round(s, 12) strictly decreases, that first key column keeps
    the input order.  Otherwise the sort uses every key column, -round(s, 12) and then each rounded
    entry of vec(X), real before imaginary (2 d_A^2 + 1 columns, where a lexsort makes one pass
    each), in one stable argsort of each row's bytes.  That is the lexsort's order: adding 0.0
    turns -0.0 into the 0.0 it compares equal to, and flipping the sign bit of a nonnegative
    float, or every bit of a negative one, maps finite floats in order onto unsigned integers,
    whose big-endian bytes compare alike.  Rows tied in every column keep their input order.
    """
    X, Y = np.asarray(Xs, order="C"), np.asarray(Ys, order="C")  # flipped in place
    n = len(X)
    v = X.reshape(n, -1)
    big = np.abs(v) > 1e-8
    lead = v[np.arange(n), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (np.where(np.abs(lead.real) > 1e-12, lead.real, lead.imag) < 0)
    np.negative(X, out=X, where=flip[:, None, None])
    np.negative(Y, out=Y, where=flip[:, None, None])
    rounded = s.round(12)
    if (rounded[1:] < rounded[:-1]).all():
        return s, Family(X), Family(Y)
    key = np.column_stack([-rounded, np.round(v.view(float), 10)]) + 0.0
    bits = key.view(np.int64)
    rows = (bits ^ ((bits >> 63) | np.int64(-2**63))).astype(">i8").view(f"V{key[0].nbytes}")
    order = np.argsort(rows[:, 0], kind="stable")
    return s[order], Family(X[order]), Family(Y[order])


@cache
def _frame(d: int) -> tuple:
    """The orthonormal Hermitian frame P, the vec(C_j) of ``hermitian_basis(d)`` over sqrt(d) as
    columns, with P^dag and conj(P), built once per d: no caller writes to them."""
    frame = hermitian_basis(d).ops.vecs.T / np.sqrt(d)
    return frame, frame.conj().T, np.conj(frame)


def _schmidt_hermitian(m, dA, dB):
    """Schmidt pairs of a state from its realignment ``m``, via a real coefficient SVD; singular
    values at or below ``RANK_CUTOFF`` are dropped."""
    # Discard Hermiticity dust within tolerance: the realignment of (rho + rho^dag) / 2,
    # as rho^dag realigns to the conjugate of m with both index pairs swapped.
    m = 0.5 * (m + np.conj(m.reshape(dA, dA, dB, dB).transpose(1, 0, 3, 2)).reshape(dA * dA, dB * dB))
    (pa, pa_dag, _), (pb, _, pb_conj) = _frame(dA), _frame(dB)
    g = pa_dag @ m @ pb_conj
    if np.abs(g.imag).max() > 1e-10:
        raise ValueError("coefficient matrix is not real; input not Hermitian")
    o1, s, o2t = np.linalg.svd(g.real)
    keep = np.flatnonzero(s > RANK_CUTOFF)  # o1, o2t are square, so index, not mask
    xs = (pa @ o1[:, keep]).T.reshape(-1, dA, dA)
    ys = (o2t[keep, :] @ pb.T).reshape(-1, dB, dB)
    return s[keep], xs, ys


def operator_schmidt(state: BipartiteState) -> OperatorSchmidt:
    """Operator-Schmidt decomposition of a bipartite state, with Hermitian frames.

    Singular values at or below ``RANK_CUTOFF`` are dropped.
    """
    if not isinstance(state, BipartiteState):
        raise TypeError(f"operator_schmidt takes a BipartiteState, got {type(state).__name__}")

    dA, dB = state.dA, state.dB
    s, xs, ys = _schmidt_hermitian(state.realigned, dA, dB)
    if len(s) == 0:
        raise ValueError("operator is zero at the rank cutoff")
    out = OperatorSchmidt(dA, dB, *_canonical_order(s, xs, ys))

    residual = relative_residual(out.realigned, state.realigned)
    if not residual <= RECON_TOL:
        raise ValueError(f"Schmidt reconstruction residual {residual:.3e} too large")
    object.__setattr__(out, "residual", residual)
    return out


def reconstruct(os: OperatorSchmidt) -> np.ndarray:
    """Multiply the decomposition back out: sum_i s_i X_i tensor Y_i."""
    return product_sum(os.s, os.X, os.Y)
