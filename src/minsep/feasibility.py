"""Membership of a bipartite operator in finitely generated separable hulls.

The core question: can rho be written sum_ij q_ij A_i tensor B_j with
q >= 0 (and sum q = 1 for convex hulls), where the A_i and B_j generate the
two local state spaces?  Realignment sends A tensor B to vec(A) vec(B)^T
(the rearrangement of Van Loan and Pitsianis), so the fit is
min ||R(rho) - G_A Q G_B^T|| over real Q >= 0, with the generator vectors
as the columns of G_A and G_B.  A Lawson-Hanson active-set solver answers
it on the implicit Gram of the products, built from the two small per-side
Gram matrices G^dag G, and imposes the simplex exactly; no design matrix
over all products is formed.  An achieved residual at or below the
feasibility tolerance certifies membership; otherwise it is only an upper
bound on the true minimum, the unsafe direction for an infeasibility
verdict.  A point known in advance, such as the weights p_i delta_ij of a
decomposition sum_k p_k A_k tensor B_k, is a membership certificate by
itself: :func:`weights_feasible` checks it without a solver.

Deletion testing certifies minimality claims: a generating set is minimal
for rho exactly when removing any single generator makes the fit
infeasible.  Each deleted fit is the realigned fit over fewer generator
vectors.  Its minimum over all complex Q, with neither sign nor simplex
constraint, is a rigorous lower bound on the nonnegative fit's residual,
and it certifies almost every deletion infeasible without a solver call.

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


def _vecs(space: StateSpace) -> np.ndarray:
    """The generators as the columns vec(A_i) of a dim^2 x n matrix."""
    return np.asarray(space.generators).reshape(len(space), space.dim**2).T


def _active_set(ga, gb, realigned, convex):
    """Q >= 0 (and sum Q = 1 if ``convex``) minimising ||R - G_A Q G_B^T||:
    Lawson-Hanson NNLS in the "fast" form of Bro and de Jong (J. Chemometrics
    11, 393, 1997).  The real Gram H = Re(K_A kron K_B), K = G^dag G, is
    applied as Re(K_A Q K_B^T) and formed only on the passive set.  In convex
    mode each passive subproblem is a bordered KKT system, started at the best
    single product.  A dual c_j - (Hq)_j at or below 1e-12 ||a_j|| (||R|| +
    sum_k ||a_k|| q_k) is rounding; so is an entering column whose weight comes
    back nonpositive, as w_t > 0 forces a positive weight in exact arithmetic.
    """
    ka, kb = ga.conj().T @ ga, gb.conj().T @ gb
    c = np.real(ga.conj().T @ realigned @ gb.conj())
    shape, c, scale = c.shape, c.ravel(), float(np.linalg.norm(realigned))
    ia, ib = np.divmod(np.arange(c.size), shape[1])
    norms = np.sqrt(np.real(np.outer(np.diag(ka), np.diag(kb))).ravel())
    q = np.zeros(c.size)  # the passive set is its support, q > 0
    if convex:
        q[np.argmin(norms**2 - 2 * c)] = 1.0

    def solve(p):
        (n,), i, j = p.shape, ia[p], ib[p]
        kkt = np.zeros((n + convex, n + convex))
        kkt[:n, :n] = np.real(ka[i[:, None], i] * kb[j[:, None], j])
        kkt[n:, :n] = kkt[:n, n:] = 1.0  # the simplex border, when convex
        return np.linalg.solve(kkt, np.append(c[p], [1.0] * convex))[:n]

    for _ in range(3 * c.size):
        w = c - np.real(ka @ q.reshape(shape) @ kb.T).ravel()
        if convex:
            w -= np.mean(w[q > 0])
        w[q > 0] = -np.inf
        t = int(np.argmax(w))
        if w[t] <= 1e-12 * norms[t] * (scale + norms @ q):
            return q.reshape(shape)
        p = np.union1d(np.flatnonzero(q), t)
        s = solve(p)
        if s[np.searchsorted(p, t)] <= 0:
            return q.reshape(shape)
        while np.any(neg := s <= 0):  # step to the boundary, drop what reaches 0
            ratio = q[p][neg] / (q[p][neg] - s[neg])
            q[p] += ratio.min() * (s - q[p])
            q[p[neg][np.argmin(ratio)]] = 0.0
            q[q < 0] = 0.0
            p = np.flatnonzero(q)
            s = solve(p)
        q[p] = s
    raise RuntimeError("nonnegative solver iteration cap exceeded")


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


def _verdict(rho, va, vb, q) -> FeasibilityResult:
    """Residual ||R - G_A Q G_B^T||, simplex violation and verdict of the
    weights Q; a negative weight is outside the hull."""
    fit = _vecs(va) @ q @ _vecs(vb).T
    residual = float(np.linalg.norm(realign(rho.rho, rho.dA, rho.dB) - fit))
    violation = abs(float(np.sum(q)) - 1.0) if va.mode == "convex" else 0.0
    feasible = bool(np.all(q >= 0)) and residual <= FEAS_TOL and violation <= 1e-6
    return FeasibilityResult(feasible, q, residual, violation)


def separable_feasible(rho: BipartiteState, va: StateSpace, vb: StateSpace) -> FeasibilityResult:
    """Best nonnegative fit of rho by products of generators of va and vb.

    Solves min_Q ||R - G_A Q G_B^T|| over real Q >= 0 and, in convex mode,
    the exact simplex sum Q = 1, with R the realignment of rho, on the
    implicit Gram of the products (:func:`_active_set`); no design matrix is
    built, and the residual is computed from R, not from the Gram.  Both
    spaces must have ``include_quantum`` unset; sampled quantum hulls are
    handled by :func:`quantum_augmented_feasible`.
    """
    _check_spaces(rho, va, vb)
    q = np.zeros((len(va), len(vb)))
    if q.size:
        q = _active_set(_vecs(va), _vecs(vb), realign(rho.rho, rho.dA, rho.dB), va.mode == "convex")
    return _verdict(rho, va, vb, q)


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
    return _verdict(rho, va, vb, q)


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
            pair = (space.without(k), other) if side == "A" else (other, space.without(k))
            result = separable_feasible(rho, *pair)
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
