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
from .core import Family, combine
from .decompositions import DecompositionMeta, SeparableDecomposition, _assemble, random_orthogonal
from .feasibility import StateSpace
from .schmidt import OperatorSchmidt
from .tolerances import ATOL


def _full_rank_dimension(os: OperatorSchmidt) -> int:
    """The d of a Schmidt form the construction can take, dA = dB = d with rank d^2; else ValueError."""
    if os.dB != os.dA:
        raise ValueError("the construction needs equal local dimensions")
    if os.D != os.dA**2:
        raise ValueError(f"operator-Schmidt rank {os.D} is deficient; need d^2 = {os.dA**2}")
    return os.dA


@dataclass(frozen=True, eq=False)
class SchmidtMaps:
    """The invertible local maps built from a full-rank Schmidt form.

    Holds the :class:`OperatorSchmidt` ``os`` = (s, X, Y) it is built from, which
    must have dA = dB = d and rank d^2 (the maps are not invertible otherwise);
    the reference basis C is ``hermitian_basis(d)``, complete with tr(C_i^dag C_j) =
    d delta_ij.  The forward maps act as sigma -> sum_j sqrt(s_j) X_j tr(C_j^dag sigma)
    (A side) and sigma -> sum_j sqrt(s_j) Y_j tr((C_j^T)^dag sigma) (B side); their
    images of a basis W are the terms of :func:`transported_decomposition`.

    Over the row-major vec(sigma) (see :mod:`minsep.core`), with the frames as columns
    X = [vec(X_j)], Y = [vec(Y_j)], C = [vec(C_j)] and C' = [vec(C_j^T)], the forward maps
    are F_A = X diag(sqrt(s)) C^dag and F_B = Y diag(sqrt(s)) C'^dag.  X and Y are
    orthonormal and C C^dag = d I, so the inverses are the d^2 x d^2 matrices ``inv_a`` =
    C diag(1 / (d sqrt(s))) X^dag and ``inv_b`` = C' diag(1 / (d sqrt(s))) Y^dag, built
    once with no matrix inversion.  The joint map F_A (x) F_B acts on a realigned operator
    as R -> F_A R F_B^T.
    """

    os: OperatorSchmidt = field(repr=False)
    d: int = field(init=False)
    basis: OperatorBasis = field(init=False, repr=False)
    inv_a: np.ndarray = field(init=False, repr=False)
    inv_b: np.ndarray = field(init=False, repr=False)
    # (w, transported_decomposition(self, w)) of the last W; holding w keeps its id unique
    _transported: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        os, d = self.os, _full_rank_dimension(self.os)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "basis", hermitian_basis(d))
        sqrt_s = np.sqrt(os.s)
        x, y, c, ct = os.X.vecs.T, os.Y.vecs.T, self.basis.ops.vecs.T, self.basis.ops.tvecs.T
        object.__setattr__(self, "inv_a", (c / (d * sqrt_s)) @ x.conj().T)
        object.__setattr__(self, "inv_b", (ct / (d * sqrt_s)) @ y.conj().T)


def build_maps(os: OperatorSchmidt) -> SchmidtMaps:
    """Construct the local maps of a full-rank Schmidt form (:class:`SchmidtMaps`).

    The reference basis is the Hermitian basis :func:`hermitian_basis`,
    complete and normalised by d; a Hermitian reference keeps the rotated
    frames Hermitian under the real orthogonal alignments produced by
    :func:`construct_alignment`.
    """
    return SchmidtMaps(os)


@dataclass(frozen=True, eq=False)
class ConditionAReport:
    """Trace-alignment vectors of a Schmidt form and whether they coincide."""

    e: np.ndarray
    f: np.ndarray
    deviation: float
    passed: bool


def check_condition_a(os: OperatorSchmidt) -> ConditionAReport:
    """Condition A: e_j = sqrt(s_j) tr(X_j) and f_j = sqrt(s_j) tr(Y_j) must
    be identical unit vectors, within ``ATOL``.

    Holds iff tr(X_j) = tr(Y_j) for all j; for unit-trace inputs the inner
    product e . f equals 1 so the norms follow automatically whenever the
    vectors agree.  A form the construction cannot take raises as in :func:`build_maps`.
    """
    _full_rank_dimension(os)
    tr_x = np.asarray(os.X).trace(axis1=1, axis2=2)
    tr_y = np.asarray(os.Y).trace(axis1=1, axis2=2)
    if max(np.abs(tr_x.imag).max(), np.abs(tr_y.imag).max()) > 1e-8:
        raise ValueError("frame traces are not real; Hermitian frames required")
    sqrt_s = np.sqrt(os.s)
    e, f = sqrt_s * tr_x.real, sqrt_s * tr_y.real
    deviation = float(np.linalg.norm(e - f))
    passed = deviation <= ATOL and all(abs(np.linalg.norm(v) - 1.0) <= ATOL for v in (e, f))
    return ConditionAReport(e, f, deviation, bool(passed))


@dataclass(frozen=True)
class ConditionBReport:
    """Norm-ceiling condition: min_k s_k must exceed 1/d^2."""

    min_s: float
    margin: float         # min_s - 1/d^2, from which marginal and passed are read
    bound: float          # 1 / sqrt(d * min_s), the inverse maps' spectral norm
    ceiling: float        # sqrt(d), the norm the images attain
    marginal: bool
    passed: bool


def check_condition_b(maps: SchmidtMaps) -> ConditionBReport:
    """Condition B: the inverse maps keep every quantum state strictly below
    2-norm sqrt(d).

    The criterion is spectral and exact, so nothing is sampled: an inverse
    map stretches 2-norms by at most 1/sqrt(d min_k s_k), below sqrt(d) iff
    min_k s_k > 1/d^2 (strict).  Exactly critical is marginal, not passed.
    """
    d = maps.d
    min_s = float(maps.os.s.min())
    margin = min_s - 1.0 / d**2
    bound, ceiling = float(1.0 / np.sqrt(d * min_s)), float(np.sqrt(d))
    return ConditionBReport(min_s, margin, bound, ceiling, abs(margin) <= 1e-12, margin > 1e-12)  # never both


@dataclass(frozen=True, eq=False)
class TraceAlignment:
    """A real orthogonal T taking the trace vector e to the uniform vector g."""

    e: np.ndarray
    g: np.ndarray
    T: np.ndarray = field(repr=False)


def _reflector(u: np.ndarray, w: np.ndarray):
    """The unit v with (I - 2 v v^T) u = w for unit vectors u and w, or None when u = w within 1e-13."""
    diff = u - w
    nrm = np.linalg.norm(diff)
    return None if nrm <= 1e-13 else diff / nrm


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
    v = _reflector(e, g)
    t = np.eye(D) if v is None else np.eye(D) - 2.0 * np.outer(v, v)
    if seed is not None:
        # t H diag(1, Q) H, H the reflection of e onto the axis e_0 (a boolean e_0 here): each H
        # a rank-one update of t, unless e is on the axis, and Q a rotation of t's trailing columns.
        h = _reflector(e, np.arange(D) == 0)
        q = random_orthogonal(D - 1, seed)
        if h is not None:
            t -= np.multiply.outer(2.0 * (t @ h), h)
        t[:, 1:] = t[:, 1:] @ q
        if h is not None:
            t -= np.multiply.outer(2.0 * (t @ h), h)
    if np.linalg.norm(t @ e - g) > 1e-10:
        raise ValueError("alignment construction failed to map e to g")
    return TraceAlignment(e, g, t)


def build_w_basis(maps: SchmidtMaps, alignment: TraceAlignment) -> OperatorBasis:
    """Rotate the reference basis by the alignment: W_k = sum_j T_kj C_j.

    The result is again orthogonal with the same normalisation, and the
    forward images of W_k (A side) and W_k^T (B side) all have unit trace.
    """
    return OperatorBasis(maps.d, Family(combine(alignment.T, maps.basis.ops)))


def transported_decomposition(maps: SchmidtMaps, w: OperatorBasis) -> SeparableDecomposition:
    """Push the uniform decomposition of the maximally entangled state through
    the maps: d^2 terms with weights 1/d^2 on the images F_A W_k and
    F_B W_k^T.

    Accepts any complete basis of dimension d, so tr(W_i^dag W_j) =
    d delta_ij; unit traces of the local operators additionally require W
    to come from a trace alignment (or the maps to be trace preserving).  The
    maps keep the decomposition of the last W, by identity, to return again.
    """
    last = maps._transported
    if last and last[0] is w:
        return last[1]
    d = maps.d
    if w.dim != d or not w.complete:
        raise ValueError("W must be a complete basis with normalisation d")
    # Row k: a^k_j = sqrt(s_j) tr(C_j^dag W_k), so that F_A W_k =
    # sum_j a^k_j X_j and F_B W_k^T = sum_j a^k_j Y_j: b = conj(a).
    os = maps.os
    a = (w.ops.vecs @ maps.basis.ops.vecs.conj().T) * np.sqrt(os.s)
    dec = _assemble(os, np.full(d * d, 1.0 / d**2), a, np.conj(a), DecompositionMeta(kind="transported", s=os.s))
    object.__setattr__(maps, "_transported", (w, dec))
    return dec


def transported_cost(dec: SeparableDecomposition, maps: SchmidtMaps) -> float:
    """Cost of a decomposition under the inverse-map norms on each side.

    For the transported decomposition itself every term has both norms equal
    to sqrt(d), so the total is d.  Each side's norms are one stacked product.
    """
    na = np.linalg.norm(dec.A.vecs @ maps.inv_a.T, axis=1)
    nb = np.linalg.norm(dec.B.vecs @ maps.inv_b.T, axis=1)
    return float((dec.p * na * nb).sum())


def unit_trace_deviation(dec: SeparableDecomposition) -> float:
    """max_k |tr O_k - 1| over the local operators O_k of both sides of ``dec``."""
    return float(np.abs(np.concatenate([dec.A, dec.B]).trace(axis1=1, axis2=2) - 1.0).max())


def minimal_quantum_spaces(
    maps: SchmidtMaps, w: OperatorBasis, mode: str = "convex"
) -> tuple[StateSpace, StateSpace]:
    """The quantum-augmented local state spaces generated by the transported terms F_A W_k
    and F_B W_k^T (:func:`transported_decomposition`, reused if the maps hold it for this W),
    so W must be a complete basis of the maps' dimension.

    ``mode="convex"`` gives the unit-trace convex hulls, ``mode="conic"``
    the positive-trace conic hulls.  Both conditions of the construction
    must hold; the unit traces of the terms are re-verified directly, within ``ATOL``.
    """
    cond_b = check_condition_b(maps)
    if not cond_b.passed:
        raise ValueError(
            f"condition B fails: min Schmidt coefficient {cond_b.min_s:.6g} "
            f"is not above 1/d^2 = {1.0 / maps.d**2:.6g}"
        )
    dec = transported_decomposition(maps, w)
    if unit_trace_deviation(dec) > ATOL:
        raise ValueError("image operators are not unit trace; condition A alignment missing")
    return tuple(StateSpace(maps.d, gens, mode, include_quantum=True) for gens in (dec.A, dec.B))
