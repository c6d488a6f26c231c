"""Operator-Schmidt decomposition of bipartite states.

A state rho on A tensor B can be written rho = sum_i s_i X_i tensor Y_i
with s_i > 0 nonincreasing and {X_i}, {Y_i} Frobenius-orthonormal.  The
coefficients are the singular values of the realignment of rho.

A state is Hermitian, so the decomposition is computed in a Hermitian
product basis, where the coefficient matrix is real; the real SVD then
yields real orthogonal mixings of Hermitian operators, so every X_i and Y_i
comes out Hermitian even when the Schmidt spectrum is degenerate.  Inside a
cluster of tied coefficients, :func:`_gauge` fixes the frames from the
cluster's span alone, so they do not depend on the BLAS kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import _frame
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


def _gauge(s, left, right):
    """Rotate each cluster of tied ``s`` (gaps at most 1e-12 s_0) in place: with V its columns of
    ``left``, the eigenvectors O of V^T diag(1, ..., n) V, eigenvalues increasing, turn V into V O
    and its rows of ``right`` into O^T rows, so a full cluster gives the reference basis.  Tied
    eigenvalues switch the cluster to diag(1, 4, ..., n^2); a tie under both raises.  The product
    moves by at most twice each cluster's spread, (D - 1) 1e-12 s_0 in all.  A cluster that spans
    the space has V square and orthogonal, so V O is the identity and O^T is V: no eigh."""
    split = s[:-1] - s[1:] > 1e-12 * s[0]
    if split.all():
        return
    if len(s) == len(left) and not split.any():
        right[: len(s)] = left @ right[: len(s)]
        left[:] = np.eye(len(s))
        return
    weights = np.arange(1.0, len(left) + 1)[:, None]
    starts = np.flatnonzero(np.concatenate(([True], split)))
    sizes = np.concatenate((starts[1:], [len(s)])) - starts
    for k in set(sizes[sizes > 1].tolist()):  # one eigh per cluster size (np.unique would add 1 MB RSS)
        idx = starts[sizes == k, None] + np.arange(k)
        v = left[:, idx].transpose(1, 0, 2)  # [cluster, n, k]
        w, o = np.linalg.eigh(v.transpose(0, 2, 1) @ (weights * v))
        tied = (np.diff(w) <= 1e-8).any(axis=1)
        if tied.any():
            w[tied], o[tied] = np.linalg.eigh(v[tied].transpose(0, 2, 1) @ (weights**2 * v[tied]))
            if (np.diff(w[tied]) <= 1e-8).any():
                raise ValueError("Schmidt gauge is degenerate: a tied cluster has no unique frame")
        left[:, idx] = (v @ o).transpose(1, 0, 2)
        right[idx] = o.transpose(0, 2, 1) @ right[idx]


def _schmidt_hermitian(m, dA, dB):
    """Schmidt pairs (s, X, Y) of a state from its realignment ``m``, via a real coefficient SVD in
    the gauge of :func:`_gauge`; singular values at or below ``RANK_CUTOFF`` are dropped.  The sign
    of each pair gives the first significant entry of vec(X) a positive real part (imaginary part
    if purely imaginary); Y flips with X by negation, which keeps an imaginary -0.0."""
    # Discard Hermiticity dust within tolerance: the realignment of (rho + rho^dag) / 2,
    # as rho^dag realigns to the conjugate of m with both index pairs swapped.
    m = 0.5 * (m + np.conj(m.reshape(dA, dA, dB, dB).transpose(1, 0, 3, 2)).reshape(dA * dA, dB * dB))
    (pa, pa_dag, _), (pb, _, pb_conj) = _frame(dA), _frame(dB)
    g = pa_dag @ m @ pb_conj
    if np.abs(g.imag).max() > 1e-10:
        raise ValueError("coefficient matrix is not real; input not Hermitian")
    o1, s, o2t = np.linalg.svd(g.real)
    keep = np.flatnonzero(s > RANK_CUTOFF)  # o1, o2t are square, so index, not mask
    _gauge(s[keep], o1, o2t)
    xs = (pa @ o1[:, keep]).T.reshape(-1, dA, dA)
    ys = (o2t[keep, :] @ pb.T).reshape(-1, dB, dB)
    v = xs.reshape(len(xs), -1)
    big = np.abs(v) > 1e-8
    lead = v[np.arange(len(v)), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (np.where(np.abs(lead.real) > 1e-12, lead.real, lead.imag) < 0)
    np.negative(xs, out=xs, where=flip[:, None, None])
    np.negative(ys, out=ys, where=flip[:, None, None])
    return s[keep], Family(xs), Family(ys)


def operator_schmidt(state: BipartiteState) -> OperatorSchmidt:
    """Operator-Schmidt decomposition of a bipartite state, with Hermitian frames that depend on the
    state alone, tied clusters included; singular values at or below ``RANK_CUTOFF`` are dropped."""
    if not isinstance(state, BipartiteState):
        raise TypeError(f"operator_schmidt takes a BipartiteState, got {type(state).__name__}")

    out = OperatorSchmidt(state.dA, state.dB, *_schmidt_hermitian(state.realigned, state.dA, state.dB))

    residual = relative_residual(out.realigned, state.realigned)
    if not residual <= RECON_TOL:
        raise ValueError(f"Schmidt reconstruction residual {residual:.3e} too large")
    object.__setattr__(out, "residual", residual)
    return out


def reconstruct(os: OperatorSchmidt) -> np.ndarray:
    """Multiply the decomposition back out: sum_i s_i X_i tensor Y_i."""
    return product_sum(os.s, os.X, os.Y)
