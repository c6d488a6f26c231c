"""Membership of a bipartite operator in finitely generated separable hulls.

The core question: can rho be written sum_ij q_ij A_i tensor B_j with
q >= 0 (and sum q = 1 for convex hulls), where the A_i and B_j generate the
two local state spaces?  The problem is a nonnegative least squares over the
real embedding of the vectorised operators, solved with the Lawson-Hanson
active-set method; the achieved 2-norm residual decides membership.

Deletion testing certifies minimality claims: a generating set is minimal
for rho exactly when removing any single generator makes the fit infeasible.

Hulls that must contain all local quantum states are handled by sampling:
pure-state projectors (the computational basis plus a seeded Haar batch)
are appended to the generators.  Feasibility found this way is a
certificate; infeasibility of a sampled hull is evidence only, since the
true hull is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import lsq_linear, nnls

from .core import as_matrix, frozen, stack
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
        gens = tuple(frozen(as_matrix(g, f"generators[{k}]")) for k, g in enumerate(self.generators))
        for k, g in enumerate(gens):
            if g.shape != (self.dim, self.dim):
                raise ValueError(f"generators[{k}] has shape {g.shape}, expected {(self.dim, self.dim)}")
            if self.include_quantum:
                tr = complex(np.trace(g))
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
        """The same space with one generator removed."""
        gens = self.generators[:index] + self.generators[index + 1:]
        return StateSpace(self.dim, gens, self.mode, self.include_quantum)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a nonnegative separable fit."""

    feasible: bool
    weights: np.ndarray = field(repr=False)
    residual: float
    constraint_violation: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _product_columns(gens_a, gens_b, dA, dB):
    """Columns vec(A_i tensor B_j), i major, as one broadcast product.

    Each entry is the one complex multiply A_i[a, a'] B_j[b, b'] that
    ``np.kron`` makes too, so the columns match a ``np.kron`` build bit for bit.
    """
    a = stack(gens_a, dA)
    b = stack(gens_b, dB)
    prod = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return np.ascontiguousarray(prod.reshape(len(a) * len(b), (dA * dB) ** 2).T)


def _nnls(design, target, maxiter):
    """scipy's ``nnls``, re-solved by bounded-variable least squares when its
    point fails the KKT conditions on g = A^T (Aq - b): g >= -tau, and
    |g| <= tau where q > 0.  ``nnls`` can stop short of the optimum, which
    overstates the residual: the unsafe direction for an infeasibility verdict.
    """
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


def separable_feasible(
    rho: BipartiteState,
    va: StateSpace,
    vb: StateSpace,
    eps_feas: float = FEAS_TOL,
    maxiter: int | None = None,
) -> FeasibilityResult:
    """Best nonnegative fit of rho by products of generators of va and vb.

    Solves min_q ||rho - sum_ij q_ij A_i tensor B_j||_2 with q >= 0 and,
    in convex mode, sum q = 1 (imposed through a heavily weighted extra
    row).  Both spaces must have ``include_quantum`` unset; sampled quantum
    hulls are handled by :func:`quantum_augmented_feasible`.
    """
    if va.include_quantum or vb.include_quantum:
        raise ValueError(
            "separable_feasible handles finite generator sets only; "
            "use quantum_augmented_feasible for quantum-augmented spaces"
        )
    if va.dim != rho.dA or vb.dim != rho.dB:
        raise ValueError(
            f"state space dims ({va.dim}, {vb.dim}) do not match state dims "
            f"({rho.dA}, {rho.dB})"
        )
    if va.mode != vb.mode:
        raise ValueError("the two state spaces must share a mode")
    ncols = len(va) * len(vb)
    if ncols == 0:
        residual = float(np.linalg.norm(rho.rho))
        return FeasibilityResult(
            residual <= eps_feas, np.zeros((len(va), len(vb))), residual,
            0.0 if va.mode == "conic" else 1.0,
        )

    cols = _product_columns(va.generators, vb.generators, rho.dA, rho.dB)
    design = np.vstack([cols.real, cols.imag])
    target = np.concatenate([rho.rho.reshape(-1).real, rho.rho.reshape(-1).imag])

    if va.mode == "convex":
        w = 1e3 * float(np.max(np.linalg.norm(design, axis=0)))
        design = np.vstack([design, np.full((1, ncols), w)])
        target = np.concatenate([target, [w]])

    q = _nnls(design, target, maxiter)
    weights = q.reshape(len(va), len(vb))
    fit = cols @ q
    residual = float(np.linalg.norm(rho.rho.reshape(-1) - fit))
    violation = abs(float(np.sum(q)) - 1.0) if va.mode == "convex" else 0.0
    feasible = residual <= eps_feas and (va.mode == "conic" or violation <= 1e-6)
    return FeasibilityResult(feasible, weights, residual, violation)


@dataclass(frozen=True)
class DeletionRecord:
    side: str
    index: int
    residual: float
    feasible: bool


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
    """Re-run the separable fit with each generator deleted in turn.

    The claim "these spaces cannot be made smaller" passes when every
    single-generator deletion leaves a residual at or above ``threshold``.
    """
    records = []
    for side, space, other in (("A", va, vb), ("B", vb, va)):
        for k in range(len(space)):
            smaller = space.without(k)
            if side == "A":
                result = separable_feasible(rho, smaller, other)
            else:
                result = separable_feasible(rho, other, smaller)
            records.append(DeletionRecord(side, k, result.residual, result.feasible))
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
    eps_feas: float = FEAS_TOL,
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
        if space.include_quantum:
            gens = space.generators + _pure_projector_samples(space.dim, sample_budget, rng)
            spaces.append(StateSpace(space.dim, gens, space.mode, include_quantum=False))
        else:
            spaces.append(StateSpace(space.dim, space.generators, space.mode, include_quantum=False))
    return separable_feasible(rho, spaces[0], spaces[1], eps_feas=eps_feas)
