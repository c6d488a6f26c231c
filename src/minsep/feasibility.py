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
Convex bounds come in closed form from one rank-revealing SVD per side, cut
at 1e-10 s_0 with a certified margin for what the cuts drop, and do not
depend on the BLAS kernel.  Conic bounds come from a stacked QR per side,
in float64 Hermitian-frame coordinates when rho and both sides are
Hermitian and neither side is nearly dependent; QR keeps every column, so
a dependent conic side's bounds still depend on rounding.

Hulls that must contain all local quantum states are handled by sampling:
pure-state projectors (the computational basis plus a seeded Haar batch)
are appended to the generators.  Feasibility found this way is a
certificate; infeasibility of a sampled hull is evidence only, since the
true hull is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import _frame
from .core import family, frozen
from .states import BipartiteState, haar_projectors
from .tolerances import ATOL, FEAS_TOL, INFEAS_THRESHOLD

MODES = ("convex", "conic")


@dataclass(frozen=True, eq=False)
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
            tr = np.asarray(gens).trace(axis1=1, axis2=2)
            cplx = np.abs(tr.imag) > ATOL
            off = np.abs(tr - 1.0) > ATOL if self.mode == "convex" else tr.real <= ATOL
            if (cplx | off).any():  # name the first offender
                k = int(np.argmax(cplx | off))
                if cplx[k]:
                    raise ValueError(f"generators[{k}] has complex trace {tr[k]:.6g}")
                want = "unit" if self.mode == "convex" else "positive"
                raise ValueError(f"generators[{k}] must have {want} trace, got {tr[k].real:.6g}")
        object.__setattr__(self, "generators", gens)

    def __len__(self) -> int:
        return len(self.generators)

    def without(self, index: int) -> "StateSpace":
        """The same space with generator ``index``, 0 <= index < len, removed."""
        if not 0 <= index < len(self):
            raise IndexError(f"generator index {index} is outside 0 <= k < {len(self)}")
        gens = np.delete(self.generators, index, axis=0)
        return StateSpace(self.dim, gens, self.mode, self.include_quantum)


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of a nonnegative separable fit."""

    feasible: bool
    weights: np.ndarray = field(repr=False)
    residual: float
    constraint_violation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", frozen(self.weights, float))


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
    fit = va.generators.vecs.T @ q @ vb.generators.vecs
    residual = float(np.linalg.norm(rho.realigned - fit))
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
        ga, gb = va.generators.vecs.T, vb.generators.vecs.T
        q = _active_set(ga, gb, rho.realigned, va.mode == "convex")
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


def _hermitian_coordinates(rho: BipartiteState, va: StateSpace, vb: StateSpace):
    """G_A, G_B and R in the orthonormal Hermitian frames, the float64 real parts of P_A^dag G_A,
    P_B^dag G_B and P_A^dag R conj(P_B), when each has ||Im|| <= 1e-13 ||.||: rho and each side
    Hermitian to 1e-13, as ||Im|| = ||X - X^dag|| / 2 (P is unitary).  None otherwise."""
    (_, pa_dag, _), (_, pb_dag, pb_conj) = _frame(rho.dA), _frame(rho.dB)
    coords = (pa_dag @ va.generators.vecs.T, pb_dag @ vb.generators.vecs.T, pa_dag @ rho.realigned @ pb_conj)
    flat = [x.view(float).ravel() for x in coords]  # re, im interleaved
    if all(w[1::2] @ w[1::2] <= 1e-26 * (w @ w) for w in flat):
        return tuple(np.ascontiguousarray(x.real) for x in coords)
    return None


def _stacked_bases(g: np.ndarray) -> tuple:
    """One stacked QR of the side G = [g_1 ... g_n]: row k is G with column k moved last, so the
    first n - 1 columns of its Q span G without generator k, and the last row is G itself.
    Returns those n bases, the basis of G and the diagonal of G's R (empty when n = 0)."""
    n = g.shape[1]
    j, k = np.arange(n - 1), np.arange(n)[:, None]
    q, r = np.linalg.qr(g[:, np.concatenate([j + (j >= k), k], axis=1)].transpose(1, 0, 2))
    return q[:, :, : n - 1], q[-1] if n else g, r[-1:].diagonal(axis1=1, axis2=2)


def _conic_bounds(rho: BipartiteState, va: StateSpace, vb: StateSpace) -> tuple:
    """(G_A, G_B, R) in the coordinates the conic bounds run in, and each side's bounds from its
    :func:`_stacked_bases`: real Hermitian-frame coordinates, or the complex generator vectors and R
    when rho or a generator is not Hermitian or a side is nearly dependent (at most as many
    generators as rows and an R diagonal entry at or below 1e-3 of its largest)."""
    coords = _hermitian_coordinates(rho, va, vb)
    sides = [_stacked_bases(g) for g in coords[:2]] if coords else []
    diags = [np.abs(diag).ravel().tolist() for *_, diag in sides]
    if not sides or not all(g.shape[1] > len(g) or min(d, default=1) > 1e-3 * max(d, default=1)
                            for g, d in zip(coords, diags)):
        coords = (va.generators.vecs.T, vb.generators.vecs.T, rho.realigned)
        sides = [_stacked_bases(g) for g in coords[:2]]
    (qa, span_a, _), (qb, span_b, _), realigned = *sides, coords[2]
    bounds = []
    for space, q, q_other, target in ((va, qa, span_b, realigned), (vb, qb, span_a, realigned.T)):
        fits = q @ (q.conj().swapaxes(1, 2) @ (target @ q_other.conj())) @ q_other.T
        residuals = (target - fits).reshape(len(space), target.size)
        if np.iscomplexobj(residuals):  # the two dots np.linalg.norm takes
            squares = [re.dot(re) + im.dot(im) for re, im in zip(residuals.real, residuals.imag)]
        else:
            squares = [row.dot(row) for row in residuals]
        bounds.append([math.sqrt(square) for square in squares])
    return coords, bounds


def _convex_bounds(rho: BipartiteState, va: StateSpace, vb: StateSpace) -> list:
    """Each side's deletion bounds for convex spaces, in closed form from one SVD per side."""
    sides = []
    for g in (va.generators.vecs.T, vb.generators.vecs.T):
        u, s, vh = np.linalg.svd(g, full_matrices=False)
        sv = s.tolist()
        r = sum(x > 1e-10 * sv[0] for x in sv)
        y = vh[:r] / s[:r, None]  # column k: S_r^-1 v_k
        yy, slack = np.einsum("ij,ij->j", y.conj(), y).real, 0.0
        if r < g.shape[1]:  # leverages and a_k from p_ik = v_i^dag v_k; V_r is unitary otherwise
            p = vh[:r].conj().T @ vh[:r]
            yy[p.diagonal().real < 1 - 1e-8] = np.inf  # no direction lost
            p.flat[:: len(p) + 1] = 0.0
            slack = abs(p).max(0, initial=0.0) / np.sqrt(yy)
        sides.append((u[:, :r], y, yy, slack, max(sv[r:], default=0.0), max(sv, default=0.0)))
    (ua, ya, yya, slack_a, drop_a, s0_a), (ub, yb, yyb, slack_b, drop_b, s0_b) = sides
    c = ua.conj().T @ rho.realigned @ ub.conj()
    e = (rho.realigned - ua @ c @ ub.T).view(float).ravel()  # E as re, im pairs
    bounds = []
    for y, yy, target, slack, s0 in ((ya, yya, c, slack_a, s0_b), (yb, yyb, c.T, slack_b, s0_a)):
        t = (y.conj().T @ target).view(float)  # row k: ||S_r^-1 v_k|| z_k^dag R conj(U_B), re, im pairs
        margin = drop_a * s0_b + drop_b * s0_a + slack * s0
        bounds.append((np.sqrt(e @ e + np.einsum("ij,ij->i", t, t) / yy) - margin).tolist())
    return bounds


def deletion_minimality(
    rho: BipartiteState,
    va: StateSpace,
    vb: StateSpace,
    threshold: float = INFEAS_THRESHOLD,
) -> MinimalityReport:
    """Decide, for each generator in turn, whether rho stays in the hull
    of the spaces without it.

    With R the realignment of rho, the fit without A-side generator k is
    min ||R - G_A' Q G_B^T|| over the remaining generator vectors G_A';
    B-side deletions are the same with R transposed.  A deletion whose lower
    bound on that minimum is at or above the finite ``threshold`` and above
    ``FEAS_TOL`` is infeasible without a solver call; any other deletion runs
    :func:`separable_feasible` on the smaller space.  The ``FEAS_TOL``
    condition keeps a bound at rounding level, which a tiny threshold would
    accept, from passing a deletion that is feasible.

    Convex bounds take one SVD per side (:func:`_convex_bounds`), G = U S
    V^dag thin on the complex generator vectors, cut to rank r at s_i >
    1e-10 s_0.  With C = U_A^dag R conj(U_B), E = R - U_A C U_B^T is the
    whole-side residual, taken as a matrix.  Deleting generator k loses the
    direction z_k = U_r S_r^-1 v_k / ||S_r^-1 v_k|| when its leverage
    l_k = ||v_k||^2 is 1 (always when r = n) and none when l_k < 1; it counts
    as lost at l_k >= 1 - 1e-8.  The bound is sqrt(||E||^2 + ||z_k^dag R
    conj(U_B)||^2), the second term only when lost, less the margin
    (d_A + a_k) s_0^B + d_B s_0^A, with d the sides' largest dropped singular
    values and a_k = max_{i != k} |z_k^dag g_i| (0 when r = n or not lost).
    Projecting each remaining g_i on U_r, less z_k when lost, moves it by at
    most d_A + a_k, and each g_Bj on U_B's kept part by at most d_B; no
    vector is longer than s_0.  So a convex fit sum q_ij g_i g_Bj^T (q >= 0,
    sum q = 1) moves by at most the margin, into a subspace whose distance
    from R is the root (Pythagoras): the bound holds whatever the cuts
    decide, and they set only its tightness and stability.  An exactly
    dependent side's rounding-level singular values, near 1e-16 s_0, fall far
    below the cut.  An independent generator's computed leverage misses 1
    only at second order, by about (1e-16 s_0 / s_r)^2 <= 1e-12, and its a_k
    is rounding; a dependent one has 1 - l_k = 1 / min ||x||^2 over G x = 0
    with x_k = 1, and a_k <= s_0 sqrt(1 - l_k).  The bounds see only U_r U_r^dag
    and z_k up to phase, which neither a tie in S nor the BLAS kernel
    changes.  Conic weights are unbounded, so the margin fails there.

    Conic bounds keep one stacked QR per side (:func:`_conic_bounds`): the
    distance from R to Q_A' Q_A'^dag R conj(Q_B) Q_B^T, Q_A' and Q_B
    orthonormal bases of the two spans.  QR keeps every column, which only
    lowers the bound, but a dependent side's extra columns are rounding, so
    its bounds depend on it.  Hermitian-frame float64 coordinates move a
    bound by at most 1e-13 ||R|| plus rounding.

    The claim "these spaces cannot be made smaller" passes when every
    single-generator deletion is infeasible with a residual at or above
    ``threshold``.
    """
    _check_spaces(rho, va, vb)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    bounds = _convex_bounds(rho, va, vb) if va.mode == "convex" else _conic_bounds(rho, va, vb)[1]
    records = []
    for side, space, other, side_bounds in (("A", va, vb, bounds[0]), ("B", vb, va, bounds[1])):
        for k, bound in enumerate(side_bounds):
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
