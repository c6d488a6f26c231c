"""Local hidden variable models extracted from separable decompositions.

Given rho = sum_k q_k A^k tensor B^k and a pair of local POVMs, the joint
outcome probabilities split as sum_k q_k tr(A^k M_i) tr(B^k N_j).  Whenever
every response tr(A^k M_i) is nonnegative, dividing by the traces turns the
sum into a classical model: hidden weights p_k = q_k tr(A^k) tr(B^k) with
local response distributions.  Terms whose operator is traceless on one side
contribute nothing -- but only if that side's responses all vanish; a
traceless operator that still responds to some effect carries correlation no
classical weight can represent, and the construction fails.

The resulting model is an exact identity, not an approximation, and it is
verified at build time from the two response tables T_a = [tr(A^k M_i)] and
T_b = [tr(B^k N_j)] alone: the Born probabilities tr(rho M_i tensor N_j) are
Re(T_a^T diag(q) T_b), the model's are (p r_a)^T r_b, and the largest
entrywise difference must stay within ``BORN_TOL``.  A scan builds the
models of a whole family of POVM pairs in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .core import as_matrix, frozen, kron
from .decompositions import SeparableDecomposition
from .states import BipartiteState, Povm, identity_povm, magic_povm, projective_povm
from .tolerances import ATOL

BORN_TOL = 1e-10
# The magic scan builds its whole grid before the first row, so time and memory grow with the budget.
MAX_MAGIC_BUDGET = 10_000


class LhvConstructionError(ValueError):
    """The decomposition admits no classical model for the given POVM pair."""

    def __init__(self, message: str, term: int | None = None, effect: int | None = None):
        super().__init__(message)
        self.term = term
        self.effect = effect


@dataclass(frozen=True)
class LhvModel:
    """Hidden-variable weights and local response tables.

    Tables are indexed [term, outcome].  Rows of dropped (traceless) terms
    are identically zero and their weight vanishes; every other row is a
    probability distribution.
    """

    hidden_weights: np.ndarray = field(repr=False)
    response_a: np.ndarray = field(repr=False)
    response_b: np.ndarray = field(repr=False)
    dropped: tuple = ()
    born_deviation: float = 0.0

    def __post_init__(self):
        p, ra, rb = (frozen(x, float) for x in (self.hidden_weights, self.response_a, self.response_b))
        dropped = tuple(int(i) for i in self.dropped)
        for name, table in (("response_a", ra), ("response_b", rb)):
            if table.ndim != 2 or len(table) != len(p):
                raise ValueError(f"{name} must have one row per term")
        _check_models(p[None], ra[None], rb[None], np.array([[k not in dropped for k in range(len(p))]], bool))
        for name, value in zip(("hidden_weights", "response_a", "response_b", "dropped"), (p, ra, rb, dropped)):
            object.__setattr__(self, name, value)


def _check_models(p, ra, rb, live) -> None:
    """LhvModel's checks over a leading pair axis, in its order: hidden weights
    that are negative or do not sum to 1, then live rows of ``response_a`` and
    of ``response_b`` that are not distributions.  Raises its ValueError for
    the first pair that fails one."""
    rows = [live & ((t < 0).any(axis=-1) | (np.abs(t.sum(axis=-1) - 1.0) > 1e-9)) for t in (ra, rb)]
    faults = np.array([(p < 0).any(axis=-1), np.abs(p.sum(axis=-1) - 1.0) > 1e-6, *(r.any(axis=-1) for r in rows)])
    if faults.any():
        i = int(np.argmax(faults.any(axis=0)))
        check = int(np.argmax(faults[:, i]))
        if check == 0:
            raise ValueError("hidden weights must be nonnegative")
        if check == 1:
            raise ValueError(f"hidden weights sum to {np.sum(p[i]):.9g}, expected 1")
        name, bad = ("response_a", "response_b")[check - 2], rows[check - 2][i]
        raise ValueError(f"{name} row {np.argmax(bad)} is not a probability distribution")


def _check_dimension(povm_dim: int, op_dim: int) -> None:
    if povm_dim != op_dim:
        raise ValueError(f"POVM dimension {povm_dim} does not match operator dimension {op_dim}")


def _columns(povms) -> np.ndarray:
    """The effects M of POVMs with equal effect counts as the columns
    vec(M^T), [povm, d^2, effect]: as tr(O M) = vec(O) . vec(M^T), a stack's
    response table is one product."""
    rows = np.array([np.asarray(m.effects).swapaxes(1, 2) for m in povms])
    return rows.reshape(*rows.shape[:2], -1).swapaxes(1, 2)


def _stack(triples) -> tuple:
    """A family of (label, povm_a, povm_b) triples, read once, as its labels
    and its groups: the positions of the pairs of equal dimensions and effect
    counts, their (dim_a, dim_b) and each side's :func:`_columns`.  Other
    shapes share no product, as padding would move its last bits."""
    triples, groups = tuple(triples), {}
    for i, (_, pa, pb) in enumerate(triples):
        groups.setdefault((pa.dim, pb.dim, len(pa), len(pb)), []).append(i)
    stacked = tuple((index, key[:2], *(_columns([triples[i][s] for i in index]) for s in (1, 2)))
                    for key, index in groups.items())
    return tuple(t[0] for t in triples), stacked


# The classical-model rules, in the order a term's first failure is reported.
_RULES = (("complex", "A"), ("complex", "B"), ("traceless", "A"), ("traceless", "B"),
          ("negative", "A"), ("trace", "A"), ("negative", "B"), ("trace", "B"))
_NEGATIVE = [i for i, (rule, _) in enumerate(_RULES) if rule == "negative"]
_MESSAGES = {
    "complex": "response to effect {i} is complex ({v:.3e}); no classical model",
    "traceless": "side-{side} operator is traceless but responds to effect {i} with weight {v.real:.3e}",
    "negative": "side-{side} response to effect {i} is negative ({v.real:.3e}); "
    "operator is not generalised positive",
    "trace": "side-{side} operator has nonpositive trace {t:.3e}",
}


class _Terms(NamedTuple):
    """The classical-model rules applied to every term of a decomposition, for
    a stack of POVM pairs."""

    tables: tuple  # responses tr(O_k M_i) of sides A and B, [pair, term, effect]
    tr: np.ndarray  # traces [side, pair, term]: each table row sums to tr(O_k)
    kept: np.ndarray  # [pair, term]: the terms with no traceless side
    weights: np.ndarray  # [pair, term]: hidden weights q_k tr(A_k) tr(B_k), 0 on dropped terms
    normalised: np.ndarray  # [pair]: whether the hidden weights sum to 1
    bad: np.ndarray  # [rule, pair, term]: which of _RULES rejects which term
    effect: np.ndarray  # [rule, pair, term]: the effect a rejection names (the trace rule names none)

    def failure(self, j: int) -> LhvConstructionError | None:
        """Pair ``j``'s first failing term's first failing rule, else its weight sum."""
        bad = self.bad[:, j].T.ravel()  # [term, rule]: the first True is the first failing term's first rule
        if bad.any():
            k, rule = divmod(int(bad.argmax()), len(_RULES))
            kind, side = _RULES[rule]
            s, i = "AB".index(side), int(self.effect[rule, j, k])
            text = _MESSAGES[kind].format(i=i, side=side, v=self.tables[s][j, k, i], t=self.tr[s, j, k])
            return LhvConstructionError(f"term {k}: {text}", term=k, effect=None if kind == "trace" else i)
        if self.normalised[j]:
            return None
        return LhvConstructionError(
            f"hidden weights sum to {np.sum(self.weights[j]):.9g}; decomposition is not normalised"
        )


def _rules(p: np.ndarray, tables: tuple) -> _Terms:
    """Apply the classical-model rules to all terms of all pairs at once, as
    masks: a response is complex, or a traceless side responds, past ATOL (a
    silent traceless side drops its term); a kept side fails with a response
    below -ATOL or a trace at most ATOL.  The tests run on both sides stacked,
    the one with fewer effects padded with zero responses, which change no
    maximum or minimum that a rule compares with ATOL or names."""
    ta, tb = tables
    both = np.zeros((2, *ta.shape[:-1], max(ta.shape[-1], tb.shape[-1])), complex)
    both[0, ..., : ta.shape[-1]], both[1, ..., : tb.shape[-1]] = ta, tb
    real, imag = both.real, np.abs(both.imag)
    size = np.abs(real)
    tr = np.array([ta.real.sum(axis=-1), tb.real.sum(axis=-1)])
    traceless = np.abs(tr) <= ATOL
    kept = ~traceless.any(axis=0)
    cplx, resp = imag.max(axis=-1) > ATOL, traceless & (size.max(axis=-1) > ATOL)
    neg, trace = kept & (real.min(axis=-1) < -ATOL), kept & (tr <= ATOL)
    bad = np.concatenate((cplx, resp, neg[:1], trace[:1], neg[1:], trace[1:]))  # in _RULES order
    at = real.argmin(axis=-1)
    effect = np.concatenate((imag.argmax(axis=-1), size.argmax(axis=-1), at[:1], at[:1], at[1:], at[1:]))
    weights = np.where(kept, p * tr[0] * tr[1], 0.0)
    return _Terms(tables, tr, kept, weights, np.abs(weights.sum(axis=-1) - 1.0) <= 1e-6, bad, effect)


def _attempts(dec: SeparableDecomposition, dims: tuple, vt_a: np.ndarray, vt_b: np.ndarray):
    """``build_lhv`` on a stack of pairs of dimensions ``dims``, given each
    side's :func:`_columns`.  Returns the :class:`_Terms`, the models'
    response tables [pair, term, outcome], and per pair its Born deviation and
    its LhvConstructionError (None for a model).  The products are stacked
    ``np.matmul`` in ``build_lhv``'s order of operations, so every pair's
    numbers are those of its own pass; Python only names failures."""
    A, B = np.asarray(dec.A), np.asarray(dec.B)
    for povm_dim, ops in zip(dims, (A, B)):
        _check_dimension(povm_dim, len(ops[0]))
    terms = _rules(dec.p, (A.reshape(len(A), -1) @ vt_a, B.reshape(len(B), -1) @ vt_b))
    passed = (~terms.bad.any(axis=(0, 2)) & terms.normalised).tolist()
    ra = rb = None
    deviation = [None] * len(passed)
    if any(passed):  # the tables mean something only where the rules pass
        ra, rb = (_distributions(t.real, tr, terms.kept) for t, tr in zip(terms.tables, terms.tr))
        born = ((terms.tables[0].swapaxes(1, 2) * dec.p) @ terms.tables[1]).real
        deviation = np.abs((terms.weights[:, None] * ra.swapaxes(1, 2)) @ rb - born).max(axis=(1, 2)).tolist()
    errors = [_born_mismatch(dev) if ok else terms.failure(j) for j, (ok, dev) in enumerate(zip(passed, deviation))]
    return terms, ra, rb, deviation, errors


def _distributions(real, tr, kept):
    """Each kept term's responses divided by its trace and renormalised; the
    rows of dropped terms stay 0."""
    rows = np.divide(np.clip(real, 0.0, None), tr[..., None], out=np.zeros(real.shape), where=kept[..., None])
    total = rows.sum(axis=-1, keepdims=True)
    return np.divide(rows, total, out=rows, where=total > 0)


def _born_mismatch(deviation: float) -> LhvConstructionError | None:
    if deviation <= BORN_TOL:
        return None
    return LhvConstructionError(
        f"model deviates from Born probabilities by {deviation:.3e}; "
        f"dropped terms carried correlation for this POVM pair"
    )


def generalized_positive(x, povm: Povm) -> bool:
    """Whether tr(x M) >= -ATOL for every effect M and tr(x) > ATOL.

    This is positivity relative to the measurement class: a non-PSD operator
    can still behave as a valid state for every effect of this POVM.
    """
    x = as_matrix(x, "x")
    _check_dimension(povm.dim, len(x))
    resp = (x.reshape(1, -1) @ _columns([povm])[0])[0]
    tr = complex(np.trace(x))
    if abs(tr.imag) > ATOL or tr.real <= ATOL or np.max(np.abs(resp.imag)) > ATOL:
        return False
    return bool(np.min(resp.real) >= -ATOL)


def build_lhv(dec: SeparableDecomposition, povm_a: Povm, povm_b: Povm) -> LhvModel:
    """Construct the classical model of a decomposition for one POVM pair.

    Raises :class:`LhvConstructionError` when a term violates generalised
    positivity, when a traceless term still responds to some effect, or when
    the assembled model fails to reproduce the Born probabilities (which
    happens when dropped terms carried correlation).  The Born check runs on
    the response tables T_a and T_b: tr(rho M_i tensor N_j) for rho = sum_k
    q_k A_k tensor B_k is Re(T_a^T diag(q) T_b), the model's (p r_a)^T r_b.
    It is the one-pair case of :func:`povm_scan`'s array pass.
    """
    dims, columns = (povm_a.dim, povm_b.dim), (_columns([povm]) for povm in (povm_a, povm_b))
    terms, ra, rb, deviation, (error,) = _attempts(dec, dims, *columns)
    if error is not None:
        raise error
    return LhvModel(terms.weights[0], ra[0], rb[0], tuple(np.flatnonzero(~terms.kept[0])), deviation[0])


def lhv_probability(model: LhvModel, k: int, l: int) -> float:
    """Model probability sum_i p_i r(k|i) s(l|i) of outcome pair (k, l)."""
    return float(np.sum(model.hidden_weights * model.response_a[:, k] * model.response_b[:, l]))


def born_probability(rho, povm_a: Povm, povm_b: Povm, k: int, l: int) -> float:
    """Quantum probability tr(rho M_k tensor N_l)."""
    if isinstance(rho, BipartiteState):
        rho = rho.rho
    rho = as_matrix(rho, "rho")
    val = complex(np.trace(rho @ kron(povm_a.effects[k], povm_b.effects[l])))
    if abs(val.imag) > ATOL:
        raise ValueError(f"Born probability has imaginary part {val.imag:.3e}")
    return float(val.real)


@dataclass(frozen=True)
class ScanRecord:
    label: str
    success: bool
    born_deviation: float | None
    detail: str = ""


@dataclass(frozen=True)
class ScanReport:
    family: str
    rows: tuple
    threshold: float | None = None
    threshold_deviation: float | None = None  # the Born deviation of the model at a threshold above 0


@cache
def pauli_pairs() -> tuple[tuple[str, Povm, Povm], ...]:
    """The trivial identity pair plus all nine projective Pauli pairs."""
    pauli = tuple((f"{a}|{b}", projective_povm(a), projective_povm(b)) for a in "xyz" for b in "xyz")
    return (("identity|identity", identity_povm(2), identity_povm(2)), *pauli)


@cache
def _pauli_stack() -> tuple:
    """:func:`pauli_pairs`, stacked once: two groups, the identity pair and the rest."""
    return _stack(pauli_pairs())


@lru_cache(maxsize=8)
def _magic_pairs(budget: int) -> tuple:
    """The magic POVM and its transpose at the strengths k / budget, k = 1..budget
    (the last exactly 1), stacked as one group; the last eight budgets are kept."""
    povms = [magic_povm(k / budget) for k in range(1, budget + 1)]
    return _stack((f"magic:{k / budget:.8f}", m, m.transpose()) for k, m in enumerate(povms, 1))


def _magic_threshold(terms: _Terms) -> float:
    """The largest c in (0, 1] at which :func:`build_lhv` succeeds on
    ``magic_povm(c)`` and its transpose, or 0.0 if there is none.  It reads
    the rules at c = 1 from the last pair of ``terms``, a magic scan's (whose
    last strength is exactly 1).

    Proof that the strengths that succeed form (0, c*].  For a side operator
    O let t = tr(O) and mu = tr(O m) (m^T on B): its responses c mu and
    t - c mu are affine in c.  Read |x| <= ATOL as 0, as ``build_lhv`` does.
    A complex response (Im mu or Im t nonzero), a traceless side that
    responds (t = 0, mu != 0), a trace t < 0, hidden weights q_k tr(A_k)
    tr(B_k) that do not sum to 1, or a response c mu < 0 (mu < 0) fails at
    every c > 0 if it fails at c = 1: then c* = 0.  Otherwise c mu >= 0, a
    side that does not respond drops its term at every c, and t - c mu < 0
    iff mu > t and c > t / mu; so every response is real and nonnegative iff
    c <= c* = min(1, min t / mu over the sides with t - mu < 0), where the
    model is an exact identity and the Born check holds.  As ``build_lhv``
    accepts responses down to -ATOL, it succeeds up to ATOL / mu past c*.

    Of the rules ``build_lhv`` applies at c = 1 only a smallest response
    t - mu < 0 depends on c: if mu < 0 as well, t < 0 fails the trace rule.
    """
    bad = terms.bad[:, -1].copy()
    cut = bad[_NEGATIVE] & (terms.effect[_NEGATIVE, -1] == 1)  # [side, term]: t - mu < -ATOL
    bad[_NEGATIVE] &= ~cut
    if bad.any() or not terms.normalised[-1]:
        return 0.0
    mu = np.array([t[-1, :, 0].real for t in terms.tables])
    return float(np.min(terms.tr[:, -1][cut] / mu[cut], initial=1.0))


def povm_scan(
    dec: SeparableDecomposition,
    family: str = "pauli",
    budget: int = 16,
) -> ScanReport:
    """Attempt the classical-model construction across a family of POVM pairs.

    ``family="pauli"`` scans the identity pair and the nine projective Pauli
    pairs.  ``family="magic"`` scans the two-effect family built from the
    magic-state projector at ``budget`` strengths, 1 to ``MAX_MAGIC_BUDGET``
    (the B side measures the transposed effects).  Its threshold is the
    largest strength at which the construction succeeds, in closed form
    (:func:`_magic_threshold`).  A threshold above 0 is verified by building
    the model at it: ``threshold_deviation`` is that model's Born deviation,
    which a caller compares with ``BORN_TOL``, or None if the model's rules
    fail.  A custom iterable of (label, povm_a, povm_b) triples is also
    accepted.  Each row is ``build_lhv``'s outcome for its pair.  The scan is
    deterministic.
    """
    if isinstance(family, str) and family not in ("pauli", "magic"):
        raise ValueError(f"unknown POVM family {family!r}")
    if family == "magic" and budget < 1:
        raise ValueError(f"the magic family needs a budget of at least 1, got {budget}")
    if family == "magic" and budget > MAX_MAGIC_BUDGET:
        raise ValueError(f"the magic family takes a budget of at most {MAX_MAGIC_BUDGET}, got {budget}")
    name = family if isinstance(family, str) else "custom"
    labels, groups = _pauli_stack() if name == "pauli" else _magic_pairs(budget) if name == "magic" else _stack(family)
    rows, threshold, threshold_deviation = [None] * len(labels), None, None
    for index, *stack in groups:
        terms, ra, rb, deviation, errors = _attempts(dec, *stack)
        if any(built := [error is None for error in errors]):  # the checks LhvModel makes in build_lhv
            _check_models(terms.weights[built], ra[built], rb[built], terms.kept[built])
        for i, dev, error in zip(index, deviation, errors):
            ok = error is None
            rows[i] = ScanRecord(labels[i], ok, dev if ok else None, "" if ok else str(error))
        if name == "magic":  # the grid is one group
            threshold = _magic_threshold(terms)
    if threshold:  # the Born verification at c* > 0, reported, not raised
        povm = magic_povm(threshold)
        threshold_deviation = _attempts(dec, (2, 2), *(_columns([m]) for m in (povm, povm.transpose())))[3][0]
    return ScanReport(name, tuple(rows), threshold, threshold_deviation)
