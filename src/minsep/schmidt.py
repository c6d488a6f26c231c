"""Operator-Schmidt decomposition of bipartite operators.

Any operator rho on A tensor B can be written rho = sum_i s_i X_i tensor Y_i
with s_i > 0 nonincreasing and {X_i}, {Y_i} Frobenius-orthonormal.  The
coefficients are the singular values of the realignment of rho.

For Hermitian inputs the decomposition is computed in a Hermitian product
basis, where the coefficient matrix is real; the real SVD then yields real
orthogonal mixings of Hermitian operators, so every X_i and Y_i comes out
Hermitian even when the Schmidt spectrum is degenerate.  Non-Hermitian
operators fall back to the complex realignment SVD with a per-pair phase
rotation; pairs whose residual non-Hermiticity survives the best phase are
flagged rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import hermitian_basis
from .core import (as_matrix, dagger, family, frozen, hermitian_mask, product_sum, realign,
                   realigned_sum, relative_residual, svd)
from .states import BipartiteState
from .tolerances import RANK_CUTOFF, RECON_TOL


@dataclass(frozen=True)
class OperatorSchmidt:
    """Schmidt coefficients and orthonormal local operator frames."""

    dA: int
    dB: int
    s: np.ndarray = field(repr=False)
    X: tuple = field(repr=False)
    Y: tuple = field(repr=False)
    hermitian: tuple = ()
    realigned: np.ndarray = field(init=False, repr=False, compare=False)  # sum_i s_i vec(X_i) vec(Y_i)^T

    def __post_init__(self):
        s = frozen(self.s, float)
        if s.ndim != 1 or len(s) == 0:
            raise ValueError("s must be a nonempty 1-d array")
        if np.any(s <= 0):
            raise ValueError("Schmidt coefficients must be strictly positive")
        if np.any(np.diff(s) > 1e-12):
            raise ValueError("Schmidt coefficients must be nonincreasing")
        if len(self.X) != len(s) or len(self.Y) != len(s):
            raise ValueError("X and Y must match the number of coefficients")
        if len(s) > min(self.dA**2, self.dB**2):
            raise ValueError("rank exceeds min(dA^2, dB^2)")
        X = family(self.X, "X", self.dA)
        Y = family(self.Y, "Y", self.dB)
        hermitian = self.hermitian or hermitian_mask(X) & hermitian_mask(Y)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "hermitian", tuple(bool(h) for h in hermitian))
        object.__setattr__(self, "realigned", frozen(realigned_sum(s, X, Y)))

    @property
    def D(self) -> int:
        """Operator-Schmidt rank."""
        return len(self.s)

    @property
    def lambda_total(self) -> float:
        return float(np.sum(self.s))

    @property
    def hermitisable(self) -> bool:
        return all(self.hermitian)


def _phase_fix(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rotate a singular pair by the phase that best symmetrises X.

    If X equals exp(i theta) H for Hermitian H, then tr(X^2) has phase
    2 theta, so dividing by exp(i theta) recovers H; Y absorbs the opposite
    phase.  Returns the rotated pair and whether both ended up Hermitian.
    """
    t = complex(np.trace(x @ x))
    if abs(t) > 1e-12:
        phase = np.exp(-0.5j * np.angle(t))
        x = phase * x
        y = np.conj(phase) * y
    ok = bool(hermitian_mask(x) and hermitian_mask(y))
    return x, y, ok


def _canonical_order(s, Xs, Ys, herm):
    """Deterministic ordering and sign convention for Schmidt pairs.

    Pairs are sorted by decreasing coefficient; ties are broken by the
    lexicographic order of the (sign-fixed) vectorised X, entries compared as
    (real, imaginary) rounded to 10 decimals.  The sign of each pair is fixed
    so the first significant entry of vec(X) has positive real part (positive
    imaginary part if purely imaginary); Y flips with X, by negation: a
    product with -1.0 would turn an imaginary -0.0 into 0.0.
    """
    X, Y = np.asarray(Xs), np.asarray(Ys)
    v = X.reshape(len(X), -1)
    big = np.abs(v) > 1e-8
    lead = v[np.arange(len(v)), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (
        (lead.real < -1e-12) | ((np.abs(lead.real) <= 1e-12) & (lead.imag < 0))
    )
    X = np.where(flip[:, None, None], -X, X)
    Y = np.where(flip[:, None, None], -Y, Y)
    key = np.round(np.ascontiguousarray(X).reshape(len(X), -1).view(float), 10)  # re, im
    order = np.lexsort(np.vstack([key.T[::-1], -np.round(s, 12)]))
    return s[order], X[order], Y[order], tuple(herm[i] for i in order)


def _schmidt_hermitian(rho, dA, dB, cutoff):
    """Schmidt pairs of a Hermitian operator via a real coefficient SVD."""
    rho = 0.5 * (rho + dagger(rho))  # discard Hermiticity dust within tolerance
    pa = hermitian_basis(dA).vecs.T / np.sqrt(dA)  # orthonormal frames as columns
    pb = hermitian_basis(dB).vecs.T / np.sqrt(dB)
    m = realign(rho, dA, dB)
    g = dagger(pa) @ m @ np.conj(pb)
    if np.max(np.abs(g.imag)) > 1e-10:
        raise ValueError("coefficient matrix is not real; input not Hermitian")
    o1, s, o2t = np.linalg.svd(g.real)
    keep = np.flatnonzero(s > cutoff)  # o1, o2t are square, so index, not mask
    xs = (pa @ o1[:, keep]).T.reshape(-1, dA, dA)
    ys = (o2t[keep, :] @ pb.T).reshape(-1, dB, dB)
    return s[keep], xs, ys, [True] * len(xs)


def _schmidt_general(rho, dA, dB, cutoff):
    """Schmidt pairs of an arbitrary operator via the complex realignment SVD."""
    m = realign(rho, dA, dB)
    u, s, v = svd(m)
    keep = np.flatnonzero(s > cutoff)
    pairs = [_phase_fix(u[:, i].reshape(dA, dA), np.conj(v[:, i]).reshape(dB, dB)) for i in keep]
    xs, ys, herm = zip(*pairs) if pairs else ((), (), ())
    return s[keep], xs, ys, herm


def operator_schmidt(state, rank_cutoff: float = RANK_CUTOFF, dims=None) -> OperatorSchmidt:
    """Operator-Schmidt decomposition of a bipartite state or raw operator.

    ``state`` is a :class:`BipartiteState`, or any square array together
    with ``dims=(dA, dB)``.  Singular values at or below ``rank_cutoff``
    are dropped.
    """
    if isinstance(state, BipartiteState):
        rho, dA, dB = state.rho, state.dA, state.dB
    else:
        if dims is None:
            raise ValueError("dims=(dA, dB) is required for raw operators")
        dA, dB = dims
        rho = as_matrix(state, "state")
    if not 0 <= rank_cutoff < np.inf:  # nan fails both comparisons
        raise ValueError(f"rank_cutoff must be finite and nonnegative, got {rank_cutoff}")

    if hermitian_mask(rho):
        s, xs, ys, herm = _schmidt_hermitian(rho, dA, dB, rank_cutoff)
    else:
        s, xs, ys, herm = _schmidt_general(rho, dA, dB, rank_cutoff)
    if len(s) == 0:
        raise ValueError("operator is zero at the requested rank cutoff")
    s, xs, ys, herm = _canonical_order(s, xs, ys, herm)
    out = OperatorSchmidt(dA, dB, s, xs, ys, herm)

    residual = relative_residual(out.realigned, realign(rho, dA, dB))
    if residual > RECON_TOL:
        raise ValueError(f"Schmidt reconstruction residual {residual:.3e} too large")
    return out


def reconstruct(os: OperatorSchmidt) -> np.ndarray:
    """Multiply the decomposition back out: sum_i s_i X_i tensor Y_i."""
    return product_sum(os.s, os.X, os.Y)
