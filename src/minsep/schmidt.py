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
from .core import as_matrix, dagger, frob_norm, frozen, is_hermitian, product_sum, realign, svd
from .states import BipartiteState
from .tolerances import ATOL, RANK_CUTOFF, RECON_TOL


@dataclass(frozen=True)
class OperatorSchmidt:
    """Schmidt coefficients and orthonormal local operator frames."""

    dA: int
    dB: int
    s: np.ndarray = field(repr=False)
    X: tuple = field(repr=False)
    Y: tuple = field(repr=False)
    hermitian: tuple = ()

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
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
        X = tuple(frozen(as_matrix(x, f"X[{i}]")) for i, x in enumerate(self.X))
        Y = tuple(frozen(as_matrix(y, f"Y[{i}]")) for i, y in enumerate(self.Y))
        for i, x in enumerate(X):
            if x.shape != (self.dA, self.dA):
                raise ValueError(f"X[{i}] has shape {x.shape}, expected {(self.dA, self.dA)}")
        for i, y in enumerate(Y):
            if y.shape != (self.dB, self.dB):
                raise ValueError(f"Y[{i}] has shape {y.shape}, expected {(self.dB, self.dB)}")
        hermitian = self.hermitian or tuple(
            is_hermitian(x) and is_hermitian(y) for x, y in zip(X, Y)
        )
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "hermitian", tuple(bool(h) for h in hermitian))

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
    ok = is_hermitian(x) and is_hermitian(y)
    return x, y, ok


def _canonical_order(s, Xs, Ys, herm):
    """Deterministic ordering and sign convention for Schmidt pairs.

    Pairs are sorted by decreasing coefficient; ties are broken by the
    lexicographic order of the (sign-fixed) vectorised X.  The sign of each
    pair is fixed so the first significant entry of vec(X) has positive real
    part (positive imaginary part if purely imaginary); Y flips with X.
    """
    fixed = []
    for si, x, y, h in zip(s, Xs, Ys, herm):
        v = x.reshape(-1)
        idx = np.flatnonzero(np.abs(v) > 1e-8)
        if len(idx):
            lead = v[idx[0]]
            flip = lead.real < -1e-12 or (abs(lead.real) <= 1e-12 and lead.imag < 0)
            if flip:
                x, y = -x, -y
        key = tuple(
            (round(c.real, 10), round(c.imag, 10)) for c in x.reshape(-1)
        )
        fixed.append((si, key, x, y, h))
    fixed.sort(key=lambda t: (-round(t[0], 12), t[1]))
    s_out = np.array([t[0] for t in fixed])
    return s_out, [t[2] for t in fixed], [t[3] for t in fixed], [t[4] for t in fixed]


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
    xs = list((pa @ o1[:, keep]).T.reshape(-1, dA, dA))
    ys = list((o2t[keep, :] @ pb.T).reshape(-1, dB, dB))
    herm = [True] * len(xs)
    return s[keep], xs, ys, herm


def _schmidt_general(rho, dA, dB, cutoff):
    """Schmidt pairs of an arbitrary operator via the complex realignment SVD."""
    m = realign(rho, dA, dB)
    u, s, v = svd(m)
    keep = s > cutoff
    xs, ys, herm = [], [], []
    for i in np.flatnonzero(keep):
        x = u[:, i].reshape(dA, dA)
        y = np.conj(v[:, i]).reshape(dB, dB)
        x, y, ok = _phase_fix(x, y)
        xs.append(x)
        ys.append(y)
        herm.append(ok)
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
    if rank_cutoff < 0:
        raise ValueError("rank_cutoff must be nonnegative")

    if is_hermitian(rho, ATOL):
        s, xs, ys, herm = _schmidt_hermitian(rho, dA, dB, rank_cutoff)
    else:
        s, xs, ys, herm = _schmidt_general(rho, dA, dB, rank_cutoff)
    if len(s) == 0:
        raise ValueError("operator is zero at the requested rank cutoff")
    s, xs, ys, herm = _canonical_order(s, xs, ys, herm)
    out = OperatorSchmidt(dA, dB, s, tuple(xs), tuple(ys), tuple(herm))

    residual = frob_norm(rho - reconstruct(out)) / max(frob_norm(rho), 1e-300)
    if residual > RECON_TOL:
        raise ValueError(f"Schmidt reconstruction residual {residual:.3e} too large")
    return out


def reconstruct(os: OperatorSchmidt) -> np.ndarray:
    """Multiply the decomposition back out: sum_i s_i X_i tensor Y_i."""
    return product_sum(os.s, os.X, os.Y)


def normalized_form(os: OperatorSchmidt):
    """The Schmidt form rewritten as a convex combination.

    With lam = sum_i s_i the terms become weights p_i = s_i / lam on the
    rescaled operators sqrt(lam) X_i and sqrt(lam) Y_i; the weights are a
    probability distribution and the product is unchanged.
    """
    from .crossnorm import DiagonalScaling
    from .decompositions import equal_norm_decomposition

    return equal_norm_decomposition(
        os, DiagonalScaling.identity(os.D), np.eye(os.D, dtype=complex), 1.0
    )
