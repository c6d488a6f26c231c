"""Separable decompositions built from an operator-Schmidt form.

Two constructions are provided.  The cross-norm family takes a positive
diagonal scaling R, a row isometry U, weights p and scale factors c, and
produces a decomposition whose (R, R^-1) cost equals the sum of the Schmidt
coefficients -- the minimum any decomposition can achieve.  The equal-norm
construction restricts U to a square unitary and fixes the weights so that
all A-side coefficient vectors share one norm and all B-side vectors share
another; the resulting local operator sets cannot be shrunk while keeping
the target operator separable over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import as_matrix, combine, frob_norm, frozen, is_hermitian, product_sum, stack
from .crossnorm import DiagonalScaling, operator_coefficients
from .schmidt import OperatorSchmidt, reconstruct
from .tolerances import ATOL, MIN_WEIGHT, RECON_TOL


def is_row_isometry(u: np.ndarray, tol: float = ATOL) -> bool:
    """True when U U^dag = I (rows orthonormal; requires cols >= rows)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] < u.shape[0]:
        return False
    return bool(np.max(np.abs(u @ np.conj(u).T - np.eye(u.shape[0]))) <= tol)


def is_unitary(u: np.ndarray, tol: float = ATOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return is_row_isometry(u, tol) and bool(
        np.max(np.abs(np.conj(u).T @ u - np.eye(u.shape[1]))) <= tol
    )


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fix."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Haar-random real orthogonal matrix via sign-fixed QR."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diagonal(r))


def random_row_isometry(rows: int, cols: int, seed: int) -> np.ndarray:
    """Random rows x cols matrix with orthonormal rows (cols >= rows)."""
    if cols < rows:
        raise ValueError("a row isometry needs cols >= rows")
    return random_unitary(cols, seed)[:rows, :]


@dataclass(frozen=True)
class DecompositionMeta:
    """Construction parameters retained for later verification."""

    kind: str
    s: np.ndarray | None = None
    scaling: DiagonalScaling | None = None
    U: np.ndarray | None = field(default=None, repr=False)
    c: np.ndarray | None = None
    T: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SeparableDecomposition:
    """Weights p_k with local operators A^k, B^k summing to a target operator.

    ``a_coeff`` and ``b_coeff``, when present, are the expansion vectors in
    the Schmidt frames: A^k = sum_i a^k_i X_i and B^k = sum_i conj(b^k_i) Y_i.
    """

    p: np.ndarray = field(repr=False)
    A: tuple = field(repr=False)
    B: tuple = field(repr=False)
    a_coeff: tuple | None = field(default=None, repr=False)
    b_coeff: tuple | None = field(default=None, repr=False)
    meta: DecompositionMeta | None = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError("p must be a nonempty 1-d array")
        if np.any(p < MIN_WEIGHT):
            raise ValueError(f"weights below {MIN_WEIGHT:.0e} are rejected")
        if len(self.A) != len(p) or len(self.B) != len(p):
            raise ValueError("A and B must match the number of weights")
        A = tuple(frozen(as_matrix(a, f"A[{k}]")) for k, a in enumerate(self.A))
        B = tuple(frozen(as_matrix(b, f"B[{k}]")) for k, b in enumerate(self.B))
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if self.a_coeff is not None:
            object.__setattr__(self, "a_coeff", tuple(frozen(v) for v in self.a_coeff))
        if self.b_coeff is not None:
            object.__setattr__(self, "b_coeff", tuple(frozen(v) for v in self.b_coeff))

    @property
    def terms(self) -> int:
        return len(self.p)

    def reconstruct(self) -> np.ndarray:
        """sum_k p_k A^k tensor B^k."""
        return product_sum(self.p, self.A, self.B)


def attach_coefficients(dec: SeparableDecomposition, os: OperatorSchmidt) -> SeparableDecomposition:
    """Return a copy of ``dec`` carrying Schmidt-frame coefficient vectors.

    The projections must be lossless: every local operator has to lie in the
    span of the corresponding Schmidt frame.
    """
    a = operator_coefficients(dec.A, os.X)
    b = operator_coefficients(dec.B, os.Y, conjugate=True)
    return SeparableDecomposition(dec.p, dec.A, dec.B, tuple(a), tuple(b), dec.meta)


def _build_terms(os, scaling, u, p, c):
    sqrt_s = np.sqrt(os.s)
    za = (sqrt_s / scaling.r)[:, None] * u  # sqrt(S) R^-1 U
    zb = (sqrt_s * scaling.r)[:, None] * u  # sqrt(S) R U
    a_coeff = za.T / np.sqrt(p * c)[:, None]  # row k: column k of za / sqrt(p_k c_k)
    b_coeff = zb.T * np.sqrt(c / p)[:, None]
    ops_a = combine(a_coeff, stack(os.X, os.dA))
    ops_b = combine(np.conj(b_coeff), stack(os.Y, os.dB))
    return tuple(a_coeff), tuple(b_coeff), tuple(ops_a), tuple(ops_b)


def _check_reconstruction(dec, os):
    target = reconstruct(os)
    residual = frob_norm(dec.reconstruct() - target) / max(frob_norm(target), 1e-300)
    if residual > RECON_TOL:
        raise ValueError(f"decomposition residual {residual:.3e} exceeds {RECON_TOL:.1e}")


def cross_norm_decomposition(
    os: OperatorSchmidt,
    scaling: DiagonalScaling,
    u: np.ndarray,
    p,
    c,
) -> SeparableDecomposition:
    """A member of the family attaining the minimal (R, R^-1) cross norm.

    ``u`` is a D x N row isometry, ``p`` are N strictly positive weights
    (they need not sum to one) and ``c`` are N positive scale factors.  The
    A-side coefficient vectors are the columns of sqrt(S) R^-1 U scaled by
    1/sqrt(p_k c_k); the B side uses sqrt(S) R U and the conjugate
    convention, which makes the weighted sum collapse to the Schmidt form.
    """
    u = np.asarray(u, dtype=complex)
    D = os.D
    if u.ndim != 2 or u.shape[0] != D:
        raise ValueError(f"U must have {D} rows, got shape {u.shape}")
    if not is_row_isometry(u):
        raise ValueError("U is not a row isometry (U U^dag != I)")
    if scaling.D != D:
        raise ValueError(f"scaling has size {scaling.D}, expected {D}")
    n = u.shape[1]
    p = np.asarray(p, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,)).copy()
    if p.shape != (n,):
        raise ValueError(f"p must have length {n}")
    if np.any(p < MIN_WEIGHT):
        raise ValueError(f"weights must be at least {MIN_WEIGHT:.0e}")
    if np.any(c <= 0):
        raise ValueError("scale factors c must be strictly positive")

    a_coeff, b_coeff, ops_a, ops_b = _build_terms(os, scaling, u, p, c)
    meta = DecompositionMeta(kind="cross-norm-family", s=np.array(os.s), scaling=scaling, U=u, c=c)
    dec = SeparableDecomposition(p, ops_a, ops_b, a_coeff, b_coeff, meta)
    _check_reconstruction(dec, os)
    return dec


def equal_norm_weights(os: OperatorSchmidt, u: np.ndarray) -> np.ndarray:
    """Weights p_k = sum_i |U_ik|^2 s_i / sum_j s_j for a unitary U."""
    u = np.asarray(u, dtype=complex)
    return (np.abs(u) ** 2).T @ np.asarray(os.s) / os.lambda_total


def equal_norm_decomposition(
    os: OperatorSchmidt,
    scaling: DiagonalScaling,
    u: np.ndarray,
    c: float,
) -> SeparableDecomposition:
    """The D-term decomposition whose coefficient vectors all share one norm
    per side.

    ``u`` must be a D x D unitary and ``c`` a single positive scale.  The
    weights are fixed by the construction; they are a probability
    distribution majorised by the normalised Schmidt spectrum.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (os.D, os.D) or not is_unitary(u):
        raise ValueError("U must be a square unitary of size D")
    if not np.isscalar(c) and np.ndim(c) != 0:
        raise ValueError("c must be a single positive number")
    c = float(c)
    if c <= 0:
        raise ValueError("c must be strictly positive")
    p = equal_norm_weights(os, u)
    dec = cross_norm_decomposition(os, scaling, u, p, np.full(os.D, c))
    return replace(dec, meta=replace(dec.meta, kind="equal-norm"))


def hermitian_decomposition(
    os: OperatorSchmidt,
    scaling: DiagonalScaling,
    o: np.ndarray,
    c: float,
) -> SeparableDecomposition:
    """Equal-norm decomposition with Hermitian local operators.

    Requires a Hermitian Schmidt frame and a real orthogonal mixing matrix;
    real combinations of Hermitian operators stay Hermitian on both sides.
    """
    if not os.hermitisable:
        raise ValueError("Schmidt frame is not Hermitian; no Hermitian variant exists")
    o = np.asarray(o)
    if np.iscomplexobj(o) and np.max(np.abs(o.imag)) > ATOL:
        raise ValueError("O must be real")
    o = o.real.astype(float)
    if o.shape != (os.D, os.D) or not is_unitary(o):
        raise ValueError("O must be a square real orthogonal matrix of size D")
    dec = equal_norm_decomposition(os, scaling, o.astype(complex), c)
    for k, (a, b) in enumerate(zip(dec.A, dec.B)):
        if not (is_hermitian(a) and is_hermitian(b)):
            raise ValueError(f"term {k} failed to come out Hermitian")
    return dec


@dataclass(frozen=True)
class EqualNormReport:
    """Per-term coefficient norms of a decomposition and their spread."""

    w_a: np.ndarray
    w_b: np.ndarray
    max_dev_a: float
    max_dev_b: float
    expected_w: float | None
    passed: bool


def equal_norm_check(dec: SeparableDecomposition, scaling: DiagonalScaling, tol: float = ATOL) -> EqualNormReport:
    """Check that ||R a^k||^2 and ||R^-1 b^k||^2 are constant across terms.

    When the decomposition's metadata carries the Schmidt spectrum and scale
    factors, the A-side constant is also compared against
    sum_i s_i / sum_k p_k c_k.
    """
    if dec.a_coeff is None or dec.b_coeff is None:
        raise ValueError("decomposition has no coefficient vectors")
    w_a = np.array([np.linalg.norm(scaling.apply(a)) ** 2 for a in dec.a_coeff])
    w_b = np.array([np.linalg.norm(scaling.apply_inverse(b)) ** 2 for b in dec.b_coeff])
    dev_a = float(np.max(w_a) - np.min(w_a))
    dev_b = float(np.max(w_b) - np.min(w_b))
    expected = None
    passed = dev_a <= tol and dev_b <= tol
    meta = dec.meta
    if meta is not None and meta.s is not None and meta.c is not None:
        expected = float(np.sum(meta.s) / np.sum(dec.p * meta.c))
        passed = passed and abs(float(np.mean(w_a)) - expected) <= max(tol, tol * expected)
    return EqualNormReport(w_a, w_b, dev_a, dev_b, expected, bool(passed))
