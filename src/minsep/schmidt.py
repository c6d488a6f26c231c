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
from .core import (Family, as_matrix, dagger, family, frozen, hermitian_mask, product_sum, realign,
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

    The sort uses every key column, -round(s, 12) and then each rounded entry of vec(X), real
    before imaginary (2 d_A^2 + 1 columns, where a lexsort makes one pass each), in one stable
    argsort of each row's bytes.  That is the lexsort's order: adding 0.0 turns -0.0 into the
    0.0 it compares equal to, and flipping the sign bit of a nonnegative float, or every bit
    of a negative one, maps finite floats in order onto unsigned integers, whose big-endian
    bytes compare alike.  Rows tied in every column keep their input order.
    """
    X, Y = np.array(Xs, order="C"), np.array(Ys, order="C")  # copies, flipped in place
    n = len(X)
    v = X.reshape(n, -1)
    big = np.abs(v) > 1e-8
    lead = v[np.arange(n), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (np.where(np.abs(lead.real) > 1e-12, lead.real, lead.imag) < 0)
    np.negative(X, out=X, where=flip[:, None, None])
    np.negative(Y, out=Y, where=flip[:, None, None])
    key = np.column_stack([-np.round(s, 12), np.round(v.view(float), 10)]) + 0.0
    bits = key.view(np.int64)
    rows = (bits ^ ((bits >> 63) | np.int64(-2**63))).astype(">i8").view(f"V{key[0].nbytes}")
    order = np.argsort(rows[:, 0], kind="stable")
    return s[order], Family(X[order]), Family(Y[order]), tuple(herm[i] for i in order)


def _schmidt_hermitian(m, dA, dB, cutoff):
    """Schmidt pairs of a Hermitian operator from its realignment ``m``, via a real coefficient SVD."""
    # Discard Hermiticity dust within tolerance: realign((rho + rho^dag) / 2),
    # as rho^dag realigns to the conjugate of m with both index pairs swapped.
    m = 0.5 * (m + np.conj(m.reshape(dA, dA, dB, dB).transpose(1, 0, 3, 2)).reshape(dA * dA, dB * dB))
    pa = hermitian_basis(dA).vecs.T / np.sqrt(dA)  # orthonormal frames as columns
    pb = pa if dB == dA else hermitian_basis(dB).vecs.T / np.sqrt(dB)
    g = dagger(pa) @ m @ np.conj(pb)
    if np.abs(g.imag).max() > 1e-10:
        raise ValueError("coefficient matrix is not real; input not Hermitian")
    o1, s, o2t = np.linalg.svd(g.real)
    keep = np.flatnonzero(s > cutoff)  # o1, o2t are square, so index, not mask
    xs = (pa @ o1[:, keep]).T.reshape(-1, dA, dA)
    ys = (o2t[keep, :] @ pb.T).reshape(-1, dB, dB)
    return s[keep], xs, ys, [True] * len(xs)


def _schmidt_general(m, dA, dB, cutoff):
    """Schmidt pairs of an arbitrary operator from its realignment ``m``, via its complex SVD."""
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

    hermitian = isinstance(state, BipartiteState) or hermitian_mask(rho)  # a state is checked Hermitian
    m = realign(rho, dA, dB)
    schmidt_pairs = _schmidt_hermitian if hermitian else _schmidt_general
    s, xs, ys, herm = schmidt_pairs(m, dA, dB, rank_cutoff)
    if len(s) == 0:
        raise ValueError("operator is zero at the requested rank cutoff")
    out = OperatorSchmidt(dA, dB, *_canonical_order(s, xs, ys, herm))

    residual = relative_residual(out.realigned, m)
    if not residual <= RECON_TOL:
        raise ValueError(f"Schmidt reconstruction residual {residual:.3e} too large")
    return out


def reconstruct(os: OperatorSchmidt) -> np.ndarray:
    """Multiply the decomposition back out: sum_i s_i X_i tensor Y_i."""
    return product_sum(os.s, os.X, os.Y)
