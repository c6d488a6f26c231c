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

from dataclasses import dataclass, field

import numpy as np

from .core import Family, combine, family, frozen, hermitian_mask, product_sum, realigned_sum, relative_residual
from .crossnorm import DiagonalScaling, _scaled_norms, decomposition_cost
from .schmidt import OperatorSchmidt
from .tolerances import ATOL, MIN_WEIGHT, RECON_TOL


def is_row_isometry(u: np.ndarray) -> bool:
    """True when U U^dag = I within ``ATOL`` (rows orthonormal; requires cols >= rows)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] < u.shape[0]:
        return False
    return bool(np.abs(u @ np.conj(u).T - np.eye(u.shape[0])).max() <= ATOL)


def is_unitary(u: np.ndarray) -> bool:
    """True when U U^dag = U^dag U = I within ``ATOL``, in real arithmetic for a real U."""
    u = np.asarray(u, dtype=float if np.isrealobj(u) else complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    eye, uh = np.eye(len(u)), np.conj(u).T
    return bool(np.abs(u @ uh - eye).max() <= ATOL and np.abs(uh @ u - eye).max() <= ATOL)


def _haar_qr(n: int, seed: int, complex_: bool) -> np.ndarray:
    """QR of a Gaussian n x n draw (real part first, then the imaginary part when complex),
    with the phase fix d / |d| on the diagonal d of R that makes the factor Haar-random."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n))
    q, r = np.linalg.qr(z + 1j * rng.normal(size=(n, n)) if complex_ else z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fix."""
    return _haar_qr(n, seed, True)


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Haar-random real orthogonal matrix via sign-fixed QR."""
    return _haar_qr(n, seed, False)


@dataclass(frozen=True, eq=False)
class DecompositionMeta:
    """Construction parameters retained for later verification."""

    kind: str
    s: np.ndarray | None = None
    scaling: DiagonalScaling | None = None
    U: np.ndarray | None = field(default=None, repr=False)
    c: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """Weights p_k with local operators A^k, B^k summing to a target operator.

    ``a_coeff`` and ``b_coeff``, when present, are the expansion vectors in
    the Schmidt frames, one read-only C-ordered (N, D) array each, row k for
    term k: A^k = sum_i a^k_i X_i and B^k = sum_i conj(b^k_i) Y_i.
    """

    p: np.ndarray = field(repr=False)
    A: tuple = field(repr=False)
    B: tuple = field(repr=False)
    a_coeff: np.ndarray | None = field(default=None, repr=False)
    b_coeff: np.ndarray | None = field(default=None, repr=False)
    meta: DecompositionMeta | None = None
    residual: float | None = field(init=False, default=None, repr=False)  # relative to the Schmidt form, gated

    def __post_init__(self):
        p = frozen(self.p, float)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError("p must be a nonempty 1-d array")
        if not np.isfinite(p).all():
            raise ValueError("p must be finite")
        if (p < MIN_WEIGHT).any():
            raise ValueError(f"weights below {MIN_WEIGHT:.0e} are rejected")
        if len(self.A) != len(p) or len(self.B) != len(p):
            raise ValueError("A and B must match the number of weights")
        object.__setattr__(self, "p", p)
        for name in ("A", "B"):
            object.__setattr__(self, name, family(getattr(self, name), name))
        for name in ("a_coeff", "b_coeff"):
            if getattr(self, name) is not None:
                coeff = frozen(getattr(self, name))
                if coeff.ndim != 2 or len(coeff) != len(p):
                    raise ValueError(f"{name} must have one row per weight, got shape {coeff.shape}")
                object.__setattr__(self, name, coeff)

    @property
    def terms(self) -> int:
        return len(self.p)

    def reconstruct(self) -> np.ndarray:
        """sum_k p_k A^k tensor B^k."""
        return product_sum(self.p, self.A, self.B)


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
    if u.ndim != 2 or u.shape[0] != os.D:
        raise ValueError(f"U must have {os.D} rows, got shape {u.shape}")
    if not is_row_isometry(u):
        raise ValueError("U is not a row isometry (U U^dag != I)")
    return _family_member(os, scaling, u, p, c, "cross-norm-family")


def attained_costs(os: OperatorSchmidt, scalings) -> list[float]:
    """The (R, R^-1) cost of the family member with U = I, p = 1/D and c = 1, built for each
    scaling R in ``scalings``: every one attains ``cross_norm_value(os)``."""
    eye, p, c = np.eye(os.D, dtype=complex), np.full(os.D, 1.0 / os.D), np.ones(os.D)
    return [decomposition_cost(cross_norm_decomposition(os, r, eye, p, c), r) for r in scalings]


def _family_member(os, scaling, u, p, c, kind: str) -> SeparableDecomposition:
    """The member for an already checked U (:func:`_assemble`)."""
    if scaling.D != os.D:
        raise ValueError(f"scaling has size {scaling.D}, expected {os.D}")
    n = u.shape[1]
    p, c = np.asarray(p, dtype=float), np.asarray(c, dtype=float)
    c = c.copy() if c.shape == (n,) else np.broadcast_to(c, (n,)).copy()
    if p.shape != (n,):
        raise ValueError(f"p must have length {n}")
    finite = np.isfinite([p, c]).all(axis=1)
    if not finite.all():
        raise ValueError(f"{('p', 'c')[np.argmin(finite)]} must be finite")
    if (p < MIN_WEIGHT).any():
        raise ValueError(f"weights must be at least {MIN_WEIGHT:.0e}")
    if (c <= 0).any():
        raise ValueError("scale factors c must be strictly positive")

    sqrt_s = np.sqrt(os.s)
    za = (sqrt_s / scaling.r)[:, None] * u  # sqrt(S) R^-1 U
    zb = (sqrt_s * scaling.r)[:, None] * u  # sqrt(S) R U
    a_coeff = za.T / np.sqrt(p * c)[:, None]  # row k: column k of za / sqrt(p_k c_k)
    b_coeff = zb.T * np.sqrt(c / p)[:, None]
    return _assemble(os, p, a_coeff, b_coeff, DecompositionMeta(kind=kind, s=os.s, scaling=scaling, U=u, c=c))


def _assemble(os, p, a_coeff, b_coeff, meta) -> SeparableDecomposition:
    """The decomposition with terms A^k = sum_i a^k_i X_i and B^k = sum_i conj(b^k_i) Y_i in the
    frames of ``os``, its reconstruction checked once on the realigned products and kept as ``residual``."""
    ops_a = Family(combine(a_coeff, os.X))
    ops_b = Family(combine(np.conj(b_coeff), os.Y))
    residual = relative_residual(realigned_sum(p, ops_a, ops_b), os.realigned)
    if not residual <= RECON_TOL:
        raise ValueError(f"decomposition residual {residual:.3e} exceeds {RECON_TOL:.1e}")
    dec = SeparableDecomposition(p, ops_a, ops_b, a_coeff, b_coeff, meta)
    object.__setattr__(dec, "residual", residual)
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
    return _equal_norm(os, scaling, u, c)


def _equal_norm(os, scaling, u, c) -> SeparableDecomposition:
    """The equal-norm member of an already checked unitary U."""
    if not np.isscalar(c) and np.ndim(c) != 0:
        raise ValueError("c must be a single positive number")
    c = float(c)
    if c <= 0:
        raise ValueError("c must be strictly positive")
    return _family_member(os, scaling, u, equal_norm_weights(os, u), np.full(os.D, c), "equal-norm")


def normalized_form(os: OperatorSchmidt) -> SeparableDecomposition:
    """The Schmidt form rewritten as a convex combination.

    With lam = sum_i s_i the terms become weights p_i = s_i / lam on the
    rescaled operators sqrt(lam) X_i and sqrt(lam) Y_i; the weights are a
    probability distribution and the product is unchanged.
    """
    return equal_norm_decomposition(
        os, DiagonalScaling.identity(os.D), np.eye(os.D, dtype=complex), 1.0
    )


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
    if np.iscomplexobj(o) and np.abs(o.imag).max() > ATOL:
        raise ValueError("O must be real")
    o = o.real.astype(float)
    if o.shape != (os.D, os.D) or not is_unitary(o):
        raise ValueError("O must be a square real orthogonal matrix of size D")
    dec = _equal_norm(os, scaling, o.astype(complex), c)
    bad = np.flatnonzero(~(hermitian_mask(dec.A) & hermitian_mask(dec.B)))
    if bad.size:
        raise ValueError(f"term {bad[0]} failed to come out Hermitian")
    return dec


@dataclass(frozen=True, eq=False)
class EqualNormReport:
    """Per-term coefficient norms of a decomposition and their spread."""

    w_a: np.ndarray
    w_b: np.ndarray
    max_dev_a: float
    max_dev_b: float
    expected_w: float | None
    passed: bool


def equal_norm_check(dec: SeparableDecomposition, scaling: DiagonalScaling) -> EqualNormReport:
    """Check that ||R a^k||^2 and ||R^-1 b^k||^2 are constant across terms.

    When the decomposition's metadata carries the Schmidt spectrum and scale
    factors, the A-side constant is also compared against
    sum_i s_i / sum_k p_k c_k.
    """
    if dec.a_coeff is None or dec.b_coeff is None:
        raise ValueError("decomposition has no coefficient vectors")
    w_a = _scaled_norms(dec.a_coeff, scaling) ** 2
    w_b = _scaled_norms(dec.b_coeff, scaling, inverse=True) ** 2
    dev_a = float(w_a.max() - w_a.min())
    dev_b = float(w_b.max() - w_b.min())
    expected = None
    passed = dev_a <= ATOL and dev_b <= ATOL
    meta = dec.meta
    if meta is not None and meta.s is not None and meta.c is not None:
        expected = float(np.sum(meta.s) / (dec.p * meta.c).sum())
        passed = passed and abs(float(w_a.mean()) - expected) <= max(ATOL, ATOL * expected)
    return EqualNormReport(w_a, w_b, dev_a, dev_b, expected, bool(passed))
