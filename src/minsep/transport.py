"""Transporting maximally entangled decompositions to full-rank states.

A state of full operator-Schmidt rank d^2 equals an invertible local pair of
maps applied to the canonical maximally entangled state.  The maps used here
send the j-th reference basis element C_j to d sqrt(s_j) X_j (A side) and
C_j^T to d sqrt(s_j) Y_j (B side).  Pushing the uniform decomposition of the
maximally entangled state through them yields a d^2-term decomposition of
the target state whose local operators can, under two admissibility
conditions, all be given unit trace:

* condition A: the vectors e_j = sqrt(s_j) tr(X_j) and f_j = sqrt(s_j) tr(Y_j)
  are identical unit vectors (equivalently tr(X_j) = tr(Y_j) for all j).  A
  real orthogonal T with T e = g, g the constant unit vector with entries
  1/d, then rotates the reference basis into a frame W_k = sum_j T_kj C_j
  whose images all have unit trace.
* condition B: the inverse maps do not stretch any quantum state to 2-norm
  sqrt(d) or beyond, which holds whenever min_k s_k > 1/d^2.

When both conditions hold, the convex (resp. conic) hulls of the image
operators together with the local quantum states admit no strict shrinking
that keeps the state separable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import OperatorBasis, hermitian_basis
from .core import as_matrix, combine, frob_norm, product_sum, realign, stack, unrealign
from .crossnorm import pair_cost
from .decompositions import DecompositionMeta, SeparableDecomposition, random_orthogonal
from .feasibility import StateSpace
from .schmidt import OperatorSchmidt
from .states import haar_projectors
from .tolerances import ATOL, RECON_TOL


@dataclass(frozen=True)
class SchmidtMaps:
    """The invertible local maps built from a full-rank Schmidt form.

    Stores (s, X, Y) of the decomposition together with a complete reference
    basis C normalised to tr(C_i^dag C_j) = d delta_ij.  The forward maps
    act as sigma -> sum_j sqrt(s_j) X_j tr(C_j^dag sigma) (A side) and
    sigma -> sum_j sqrt(s_j) Y_j tr((C_j^T)^dag sigma) (B side).

    Each map is held as one d^2 x d^2 matrix acting on the row-major
    vec(sigma) (see :mod:`minsep.core`).  With the frames as columns,
    X = [vec(X_j)], Y = [vec(Y_j)], C = [vec(C_j)] and C' = [vec(C_j^T)],
    the forward maps are F_A = X diag(sqrt(s)) C^dag and
    F_B = Y diag(sqrt(s)) C'^dag.  X and Y are orthonormal and C C^dag = d I,
    so the inverses are G_A = C diag(1 / (d sqrt(s))) X^dag and
    G_B = C' diag(1 / (d sqrt(s))) Y^dag, with no matrix inversion.  They
    are built once, as ``fwd_a``, ``fwd_b``, ``inv_a`` and ``inv_b``.
    """

    d: int
    s: np.ndarray = field(repr=False)
    X: tuple = field(repr=False)
    Y: tuple = field(repr=False)
    basis: OperatorBasis
    fwd_a: np.ndarray = field(init=False, repr=False, compare=False)
    fwd_b: np.ndarray = field(init=False, repr=False, compare=False)
    inv_a: np.ndarray = field(init=False, repr=False, compare=False)
    inv_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, n = self.d, len(self.s)
        sqrt_s = np.sqrt(self.s)
        x = stack(self.X, d).reshape(n, -1).T
        y = stack(self.Y, d).reshape(n, -1).T
        c = self.basis.vecs.T
        ct = stack(self.basis.ops, d).transpose(0, 2, 1).reshape(n, -1).T
        object.__setattr__(self, "fwd_a", (x * sqrt_s) @ c.conj().T)
        object.__setattr__(self, "fwd_b", (y * sqrt_s) @ ct.conj().T)
        object.__setattr__(self, "inv_a", (c / (d * sqrt_s)) @ x.conj().T)
        object.__setattr__(self, "inv_b", (ct / (d * sqrt_s)) @ y.conj().T)

    def _apply(self, m: np.ndarray, sigma) -> np.ndarray:
        sigma = as_matrix(sigma, "sigma")
        return (m @ sigma.reshape(-1)).reshape(self.d, self.d)

    def forward_a(self, sigma) -> np.ndarray:
        return self._apply(self.fwd_a, sigma)

    def forward_b(self, sigma) -> np.ndarray:
        return self._apply(self.fwd_b, sigma)

    def inverse_a(self, sigma) -> np.ndarray:
        return self._apply(self.inv_a, sigma)

    def inverse_b(self, sigma) -> np.ndarray:
        return self._apply(self.inv_b, sigma)

    def apply_joint(self, op) -> np.ndarray:
        """Apply (forward_a tensor forward_b) to a bipartite operator.

        Since realign(a tensor b) = vec(a) vec(b)^T, the joint map acts on
        the realignment as R -> F_A R F_B^T.
        """
        op = as_matrix(op, "op")
        d = self.d
        if op.shape != (d * d, d * d):
            raise ValueError(f"operator has shape {op.shape}, expected {(d * d, d * d)}")
        return unrealign(self.fwd_a @ realign(op, d, d) @ self.fwd_b.T, d, d)


def build_maps(os: OperatorSchmidt, basis: OperatorBasis | None = None) -> SchmidtMaps:
    """Construct the local maps of a full-rank Schmidt form.

    Requires dA = dB = d and operator-Schmidt rank exactly d^2 (the maps are
    not invertible otherwise).  ``basis`` defaults to the Hermitian basis;
    a Hermitian reference keeps the rotated frames Hermitian under the real
    orthogonal alignments produced by :func:`construct_alignment`.
    """
    if os.dA != os.dB:
        raise ValueError("the construction needs equal local dimensions")
    d = os.dA
    if os.D != d * d:
        raise ValueError(f"operator-Schmidt rank {os.D} is deficient; need d^2 = {d * d}")
    if basis is None:
        basis = hermitian_basis(d)
    if basis.dim != d or not basis.complete:
        raise ValueError("reference basis must be complete and match the local dimension")
    if abs(basis.normalization - d) > 1e-12:
        raise ValueError(f"reference basis must satisfy tr(C_i C_j^dag) = {d} delta_ij")
    return SchmidtMaps(d, np.array(os.s), os.X, os.Y, basis)


@dataclass(frozen=True)
class ConditionAReport:
    """Trace-alignment vectors of a Schmidt form and whether they coincide."""

    e: np.ndarray
    f: np.ndarray
    deviation: float
    norm_e: float
    norm_f: float
    passed: bool


def check_condition_a(os: OperatorSchmidt, tol: float = ATOL) -> ConditionAReport:
    """Condition A: e_j = sqrt(s_j) tr(X_j) and f_j = sqrt(s_j) tr(Y_j) must
    be identical unit vectors.

    Holds iff tr(X_j) = tr(Y_j) for all j; for unit-trace inputs the inner
    product e . f equals 1 so the norms follow automatically whenever the
    vectors agree.
    """
    if os.dA != os.dB or os.D != os.dA**2:
        raise ValueError("condition A needs equal dimensions and full Schmidt rank")
    tr_x = np.trace(stack(os.X, os.dA), axis1=1, axis2=2)
    tr_y = np.trace(stack(os.Y, os.dB), axis1=1, axis2=2)
    if max(np.max(np.abs(tr_x.imag)), np.max(np.abs(tr_y.imag))) > 1e-8:
        raise ValueError("frame traces are not real; Hermitian frames required")
    e = np.sqrt(os.s) * tr_x.real
    f = np.sqrt(os.s) * tr_y.real
    deviation = float(np.linalg.norm(e - f))
    norm_e = float(np.linalg.norm(e))
    norm_f = float(np.linalg.norm(f))
    passed = deviation <= tol and abs(norm_e - 1.0) <= tol and abs(norm_f - 1.0) <= tol
    return ConditionAReport(e, f, deviation, norm_e, norm_f, bool(passed))


@dataclass(frozen=True)
class ConditionBReport:
    """Norm-ceiling condition: min_k s_k must exceed 1/d^2."""

    min_s: float
    bound: float          # 1 / (d * min_s), the worst-case inverse-map norm
    ceiling: float        # sqrt(d), the norm the images attain
    sampled_max: float
    marginal: bool
    passed: bool


def check_condition_b(
    maps: SchmidtMaps, sample_count: int = 100, seed: int = 0
) -> ConditionBReport:
    """Condition B: the inverse maps keep every quantum state strictly below
    2-norm sqrt(d).

    The spectral criterion is min_k s_k > 1/d^2 (strict); a seeded batch of
    pure-state projectors is also pushed through the inverse map as a direct
    check.  The exactly-critical case is reported as marginal, not passed.
    """
    d = maps.d
    min_s = float(np.min(maps.s))
    bound = 1.0 / (d * min_s)
    ceiling = float(np.sqrt(d))
    proj = haar_projectors(np.random.default_rng(seed), d, sample_count).reshape(sample_count, d * d)
    images = np.concatenate([proj @ maps.inv_a.T, proj @ maps.inv_b.T])
    sampled = np.max(np.linalg.norm(images, axis=1), initial=0.0)
    threshold = 1.0 / d**2
    marginal = abs(min_s - threshold) <= 1e-12
    passed = (min_s - threshold) > 1e-12 and not marginal
    return ConditionBReport(min_s, bound, ceiling, float(sampled), marginal, bool(passed))


@dataclass(frozen=True)
class TraceAlignment:
    """A real orthogonal T taking the trace vector e to the uniform vector g."""

    e: np.ndarray
    g: np.ndarray
    T: np.ndarray = field(repr=False)


def _householder(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reflection mapping unit vector u to unit vector w."""
    diff = u - w
    nrm = np.linalg.norm(diff)
    n = len(u)
    if nrm <= 1e-13:
        return np.eye(n)
    v = diff / nrm
    return np.eye(n) - 2.0 * np.outer(v, v)


def construct_alignment(report: ConditionAReport, seed: int | None = None) -> TraceAlignment:
    """Build an orthogonal alignment T with T e = g from a passing condition-A
    report.

    The deterministic choice is the reflection through e - g.  Passing a
    seed composes it with a random rotation of the subspace orthogonal to e,
    producing one of the infinitely many other valid alignments.
    """
    if not report.passed:
        raise ValueError("condition A failed; no trace alignment exists")
    e = np.asarray(report.e, dtype=float)
    D = len(e)
    d = int(round(np.sqrt(D)))
    g = np.full(D, 1.0 / d)
    t = _householder(e, g)
    if seed is not None:
        to_axis = _householder(e, np.eye(D)[:, 0])
        stab = np.eye(D)
        stab[1:, 1:] = random_orthogonal(D - 1, seed)
        t = t @ to_axis.T @ stab @ to_axis
    if np.linalg.norm(t @ e - g) > 1e-10:
        raise ValueError("alignment construction failed to map e to g")
    return TraceAlignment(e, g, t)


def build_w_basis(maps: SchmidtMaps, alignment: TraceAlignment) -> OperatorBasis:
    """Rotate the reference basis by the alignment: W_k = sum_j T_kj C_j.

    The result is again orthogonal with the same normalisation, and the
    forward images of W_k (A side) and W_k^T (B side) all have unit trace.
    """
    d = maps.d
    ws = combine(alignment.T, stack(maps.basis.ops, d))
    return OperatorBasis(d, tuple(ws), float(d))


def transported_decomposition(maps: SchmidtMaps, w: OperatorBasis) -> SeparableDecomposition:
    """Push the uniform decomposition of the maximally entangled state through
    the maps: d^2 terms with weights 1/d^2 on forward_a(W_k) and
    forward_b(W_k^T).

    Accepts any complete basis with tr(W_i^dag W_j) = d delta_ij; unit
    traces of the local operators additionally require W to come from a
    trace alignment (or the maps to be trace preserving).
    """
    d = maps.d
    if w.dim != d or not w.complete or abs(w.normalization - d) > 1e-12:
        raise ValueError("W must be a complete basis with normalisation d")
    # Row k: a^k_j = sqrt(s_j) tr(C_j^dag W_k), so that forward_a(W_k) =
    # sum_j a^k_j X_j and forward_b(W_k^T) = sum_j a^k_j Y_j.
    a = (w.vecs @ maps.basis.vecs.conj().T) * np.sqrt(maps.s)
    ops_a = combine(a, stack(maps.X, d))
    ops_b = combine(a, stack(maps.Y, d))
    p = np.full(d * d, 1.0 / d**2)
    meta = DecompositionMeta(kind="transported", s=np.array(maps.s))
    dec = SeparableDecomposition(p, tuple(ops_a), tuple(ops_b), tuple(a), tuple(np.conj(a)), meta)

    target = product_sum(maps.s, maps.X, maps.Y)
    residual = frob_norm(dec.reconstruct() - target) / max(frob_norm(target), 1e-300)
    if residual > RECON_TOL:
        raise ValueError(f"transported decomposition residual {residual:.3e}; inconsistent inputs")
    return dec


def transported_cost(dec: SeparableDecomposition, maps: SchmidtMaps) -> float:
    """Cost of a decomposition under the inverse-map norms on each side.

    For the transported decomposition itself every term has both norms equal
    to sqrt(d), so the total is d.
    """
    return pair_cost(
        dec,
        lambda a: frob_norm(maps.inverse_a(a)),
        lambda b: frob_norm(maps.inverse_b(b)),
    )


def minimal_quantum_spaces(
    maps: SchmidtMaps, w: OperatorBasis, mode: str = "convex"
) -> tuple[StateSpace, StateSpace]:
    """The quantum-augmented local state spaces generated by the images of W.

    ``mode="convex"`` gives the unit-trace convex hulls, ``mode="conic"``
    the positive-trace conic hulls.  Both conditions of the construction
    must hold; the unit traces of the images are re-verified directly.
    """
    cond_b = check_condition_b(maps)
    if not cond_b.passed:
        raise ValueError(
            f"condition B fails: min Schmidt coefficient {cond_b.min_s:.6g} "
            f"is not above 1/d^2 = {1.0 / maps.d**2:.6g}"
        )
    d, n = maps.d, len(w)
    ws = stack(w.ops, d)
    gens_a = (ws.reshape(n, -1) @ maps.fwd_a.T).reshape(n, d, d)
    gens_b = (ws.transpose(0, 2, 1).reshape(n, -1) @ maps.fwd_b.T).reshape(n, d, d)
    traces = np.trace(np.concatenate([gens_a, gens_b]), axis1=1, axis2=2)
    if np.max(np.abs(traces - 1.0)) > 1e-6:
        raise ValueError("image operators are not unit trace; condition A alignment missing")
    va = StateSpace(d, tuple(gens_a), mode, include_quantum=True)
    vb = StateSpace(d, tuple(gens_b), mode, include_quantum=True)
    return va, vb
