"""Membership of a bipartite operator in finitely generated separable hulls.

The core question: can rho be written sum_ij q_ij A_i tensor B_j with
q >= 0 (and sum q = 1 for convex hulls), where the A_i and B_j generate the
two local state spaces?  The problem is a nonnegative least squares over the
real embedding of the vectorised operators, solved with the Lawson-Hanson
active-set method.  An achieved residual at or below the feasibility
tolerance certifies membership; otherwise it is only an upper bound on the
true minimum, the unsafe direction for an infeasibility verdict.  A point
known in advance, such as the weights p_i delta_ij of a decomposition
sum_k p_k A_k tensor B_k, is a membership certificate by itself:
:func:`weights_feasible` checks it without a solver.

Deletion testing certifies minimality claims: a generating set is minimal
for rho exactly when removing any single generator makes the fit infeasible.
Realignment sends A tensor B to vec(A) vec(B)^T, so each deleted fit is
min ||R(rho) - G_A Q G_B^T|| over the generator vectors G_A and G_B (the
rearrangement of Van Loan and Pitsianis).  Its minimum over all complex Q,
with neither sign nor simplex constraint, is a rigorous lower bound on the
nonnegative fit's residual, and it certifies almost every deletion
infeasible without a solver call.

Hulls that must contain all local quantum states are handled by sampling:
pure-state projectors (the computational basis plus a seeded Haar batch)
are appended to the generators.  Feasibility found this way is a
certificate; infeasibility of a sampled hull is evidence only, since the
true hull is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import family, frozen, realign
from .states import BipartiteState, haar_projectors
from .tolerances import ATOL, FEAS_TOL, INFEAS_THRESHOLD

MODES = ("convex", "conic")


@dataclass(frozen=True)
class StateSpace:
    """A local operator space given by finitely many generators.

    ``mode`` selects the hull: "convex" (weights form a probability
    distribution) or "conic" (weights merely nonnegative).  When
    ``include_quantum`` is set the space is the hull of the generators
    together with all local quantum states; those spaces must consist of
    unit-trace operators in convex mode and positive-trace operators in
    conic mode, and the generators are validated accordingly.
    """

    dim: int
    generators: tuple = field(repr=False)
    mode: str = "convex"
    include_quantum: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        gens = family(self.generators, "generators", self.dim)
        if self.include_quantum:
            for k, tr in enumerate(np.trace(gens, axis1=1, axis2=2)):
                if abs(tr.imag) > ATOL:
                    raise ValueError(f"generators[{k}] has complex trace {tr:.6g}")
                if self.mode == "convex" and abs(tr - 1.0) > ATOL:
                    raise ValueError(f"generators[{k}] must have unit trace, got {tr.real:.6g}")
                if self.mode == "conic" and tr.real <= ATOL:
                    raise ValueError(f"generators[{k}] must have positive trace, got {tr.real:.6g}")
        object.__setattr__(self, "generators", gens)

    def __len__(self) -> int:
        return len(self.generators)

    def without(self, index: int) -> "StateSpace":
        """The same space with generator ``index``, 0 <= index < len, removed."""
        if not 0 <= index < len(self):
            raise IndexError(f"generator index {index} is outside 0 <= k < {len(self)}")
        gens = np.delete(self.generators, index, axis=0)
        return StateSpace(self.dim, gens, self.mode, self.include_quantum)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a nonnegative separable fit."""

    feasible: bool
    weights: np.ndarray = field(repr=False)
    residual: float
    constraint_violation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", frozen(self.weights, float))


def _product_columns(gens_a, gens_b):
    """Columns vec(A_i tensor B_j), i major, as one broadcast product.

    Each entry is the one complex multiply A_i[a, a'] B_j[b, b'] that
    ``np.kron`` makes too, so the columns match a ``np.kron`` build bit for bit.
    """
    a, b = np.asarray(gens_a), np.asarray(gens_b)
    prod = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return np.ascontiguousarray(prod.reshape(len(a) * len(b), (a.shape[1] * b.shape[1]) ** 2).T)


def _nnls(design, target, maxiter):
    """scipy's ``nnls``, re-solved by bounded-variable least squares when its
    point fails the KKT conditions on g = A^T (Aq - b): g >= -tau, and
    |g| <= tau where q > 0.  ``nnls`` can stop short of the optimum, which
    overstates the residual: the unsafe direction for an infeasibility verdict.
    """
    # Imported here: it costs about 0.5 s, paid only by fits that neither the
    # least-squares bound nor a given point decides.
    from scipy.optimize import lsq_linear, nnls

    try:
        q, _ = nnls(design, target, maxiter=maxiter)
    except RuntimeError as exc:
        raise RuntimeError(f"nonnegative solver iteration cap exceeded: {exc}") from exc
    g = design.T @ (design @ q - target)
    tau = 1e-8 * float(np.max(np.abs(design))) * float(np.linalg.norm(target))
    if np.all(g >= -tau) and np.all(np.abs(g[q > 0]) <= tau):
        return q
    res = lsq_linear(design, target, bounds=(0, np.inf), method="bvls")
    return np.clip(res.x, 0.0, None)


def _check_spaces(rho: BipartiteState, va: StateSpace, vb: StateSpace) -> None:
    """Require finite generator sets of rho's local dimensions in one mode."""
    if va.include_quantum or vb.include_quantum:
        raise ValueError(
            "separable fits handle finite generator sets only; "
            "use quantum_augmented_feasible for quantum-augmented spaces"
        )
    if va.dim != rho.dA or vb.dim != rho.dB:
        raise ValueError(
            f"state space dims ({va.dim}, {vb.dim}) do not match state dims "
            f"({rho.dA}, {rho.dB})"
        )
    if va.mode != vb.mode:
        raise ValueError("the two state spaces must share a mode")


def _verdict(rho, va, vb, cols, q) -> FeasibilityResult:
    """Residual, simplex violation and verdict of the weights q on the columns
    vec(A_i tensor B_j); a negative weight is outside the hull."""
    residual = float(np.linalg.norm(rho.rho.reshape(-1) - cols @ q))
    violation = abs(float(np.sum(q)) - 1.0) if va.mode == "convex" else 0.0
    feasible = (
        bool(np.all(q >= 0))
        and residual <= FEAS_TOL
        and (va.mode == "conic" or violation <= 1e-6)
    )
    return FeasibilityResult(feasible, q.reshape(len(va), len(vb)), residual, violation)


def separable_feasible(
    rho: BipartiteState,
    va: StateSpace,
    vb: StateSpace,
    maxiter: int | None = None,
) -> FeasibilityResult:
    """Best nonnegative fit of rho by products of generators of va and vb.

    Solves min_q ||rho - sum_ij q_ij A_i tensor B_j||_2 with q >= 0 and,
    in convex mode, sum q = 1 (imposed through a heavily weighted extra
    row).  Both spaces must have ``include_quantum`` unset; sampled quantum
    hulls are handled by :func:`quantum_augmented_feasible`.
    """
    _check_spaces(rho, va, vb)
    ncols = len(va) * len(vb)
    cols = _product_columns(va.generators, vb.generators)
    if ncols == 0:
        return _verdict(rho, va, vb, cols, np.zeros(0))

    design = np.vstack([cols.real, cols.imag])
    target = np.concatenate([rho.rho.reshape(-1).real, rho.rho.reshape(-1).imag])

    if va.mode == "convex":
        w = 1e3 * float(np.max(np.linalg.norm(design, axis=0)))
        design = np.vstack([design, np.full((1, ncols), w)])
        target = np.concatenate([target, [w]])

    q = _nnls(design, target, maxiter)
    return _verdict(rho, va, vb, cols, q)


def weights_feasible(
    rho: BipartiteState, va: StateSpace, vb: StateSpace, weights
) -> FeasibilityResult:
    """Check given weights q_ij as a fit of rho by the products A_i tensor B_j.

    Feasible certifies membership: every q_ij >= 0, the residual
    ||rho - sum_ij q_ij A_i tensor B_j|| is at most ``FEAS_TOL`` and, in
    convex mode, |sum q - 1| <= 1e-6, the same verdict as
    :func:`separable_feasible`.  A point that fails says nothing about the
    hull; only a fit decides that.  ``weights`` has shape (len(va), len(vb)).
    """
    _check_spaces(rho, va, vb)
    q = np.asarray(weights, dtype=float)
    if q.shape != (len(va), len(vb)):
        raise ValueError(f"weights have shape {q.shape}, expected {(len(va), len(vb))}")
    cols = _product_columns(va.generators, vb.generators)
    return _verdict(rho, va, vb, cols, q.reshape(-1))


@dataclass(frozen=True)
class DeletionRecord:
    """One deletion's outcome.

    ``decided_by`` is "ls_bound" when the least-squares lower bound alone
    certified the deletion infeasible; ``residual`` is then that bound.  It
    is "nnls" when the nonnegative fit ran; ``residual`` is then the
    residual that fit achieved.
    """

    side: str
    index: int
    residual: float
    feasible: bool
    decided_by: str


@dataclass(frozen=True)
class MinimalityReport:
    """Per-generator deletion outcomes; minimal iff every deletion fails."""

    records: tuple
    passed: bool
    threshold: float


def _vecs(space: StateSpace) -> np.ndarray:
    """The generators as the columns vec(A_i) of a dim^2 x n matrix."""
    return np.asarray(space.generators).reshape(len(space), space.dim**2).T


def deletion_minimality(
    rho: BipartiteState,
    va: StateSpace,
    vb: StateSpace,
    threshold: float = INFEAS_THRESHOLD,
) -> MinimalityReport:
    """Decide, for each generator in turn, whether rho stays in the hull
    of the spaces without it.

    With R the realignment of rho, the fit without A-side generator k is
    min ||R - G_A' Q G_B^T|| over the remaining generator vectors G_A'.  Over
    all complex Q the minimum is the distance from R to Q_A' Q_A'^dag R
    conj(Q_B) Q_B^T, where Q_A' and Q_B are orthonormal bases (thin QR) of
    the two column spans; B-side deletions are the same with R transposed.
    Q ranges over a superset of the nonnegative (and simplex) weights, so
    this bound is at most every residual the fit can reach.  QR keeps every
    column, with no rank cutoff: extra numerical directions can only lower
    the bound.  Each side takes one stacked QR of its n deleted generator
    matrices and one stacked product for all n projections; each bound is
    then one norm, the same floats a QR per deletion gives.  A deletion
    whose bound is at or above ``threshold`` and above ``FEAS_TOL`` is
    infeasible without a solver call; any other deletion runs
    :func:`separable_feasible` on the smaller space.  The ``FEAS_TOL``
    condition keeps a bound at rounding level, which a tiny threshold would
    accept, from passing a deletion that is feasible.
    Deleting a side's only generator leaves the bound ||rho||.

    The claim "these spaces cannot be made smaller" passes when every
    single-generator deletion is infeasible with a residual at or above
    ``threshold``.
    """
    _check_spaces(rho, va, vb)
    realigned = realign(rho.rho, rho.dA, rho.dB)
    records = []
    for side, space, other, target in (("A", va, vb, realigned), ("B", vb, va, realigned.T)):
        n, j = len(space), np.arange(len(space) - 1)
        q_other = np.linalg.qr(_vecs(other))[0]
        # Row k of the stack is G without column k: its columns j + (j >= k).
        q = np.linalg.qr(_vecs(space)[:, j + (j >= np.arange(n)[:, None])].transpose(1, 0, 2))[0]
        fits = q @ (q.conj().swapaxes(1, 2) @ (target @ q_other.conj())) @ q_other.T
        for k, fit in enumerate(fits):
            bound = float(np.linalg.norm(target - fit))
            if bound >= threshold and bound > FEAS_TOL:
                records.append(DeletionRecord(side, k, bound, False, "ls_bound"))
                continue
            smaller = space.without(k)
            if side == "A":
                result = separable_feasible(rho, smaller, other)
            else:
                result = separable_feasible(rho, other, smaller)
            records.append(DeletionRecord(side, k, result.residual, result.feasible, "nnls"))
    passed = all(r.residual >= threshold and not r.feasible for r in records)
    return MinimalityReport(tuple(records), passed, threshold)


def _pure_projector_samples(d: int, count: int, rng) -> tuple:
    """Computational-basis projectors followed by seeded Haar projectors."""
    eye = np.eye(d, dtype=complex)
    basis = eye[:, :, None] * eye[:, None, :]  # |i><i|
    return tuple(np.concatenate([basis, haar_projectors(rng, d, count)]))


def quantum_augmented_feasible(
    rho: BipartiteState,
    va: StateSpace,
    vb: StateSpace,
    sample_budget: int,
    seed: int,
) -> FeasibilityResult:
    """Separable fit against spaces augmented with sampled quantum states.

    Every side with ``include_quantum`` receives the computational-basis
    projectors plus ``sample_budget`` Haar-random pure projectors (drawn
    deterministically from ``seed``, side A first).  The weights matrix of
    the result is indexed by the augmented generator lists, original
    generators first.  Feasibility is a certificate; infeasibility only
    bounds the sampled subset of the true (infinite) quantum hull.
    """
    if not (va.include_quantum or vb.include_quantum):
        raise ValueError("neither space is quantum-augmented; use separable_feasible")
    if sample_budget < 0:
        raise ValueError("sample_budget must be nonnegative")
    rng = np.random.default_rng(seed)
    spaces = []
    for space in (va, vb):
        extra = _pure_projector_samples(space.dim, sample_budget, rng) if space.include_quantum else ()
        spaces.append(StateSpace(space.dim, space.generators + extra, space.mode))
    return separable_feasible(rho, *spaces)
