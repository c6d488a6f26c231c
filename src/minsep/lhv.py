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
entrywise difference must stay within ``BORN_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .core import as_matrix, frozen, kron, stack
from .decompositions import SeparableDecomposition
from .states import BipartiteState, Povm, identity_povm, magic_povm, projective_povm
from .tolerances import ATOL

BORN_TOL = 1e-10


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
        if np.any(p < 0):
            raise ValueError("hidden weights must be nonnegative")
        if abs(float(np.sum(p)) - 1.0) > 1e-6:
            raise ValueError(f"hidden weights sum to {np.sum(p):.9g}, expected 1")
        dropped = tuple(int(i) for i in self.dropped)
        live = ~np.isin(np.arange(len(p)), dropped)
        for name, table in (("response_a", ra), ("response_b", rb)):
            if table.ndim != 2 or len(table) != len(p):
                raise ValueError(f"{name} must have one row per term")
            bad = live & (np.any(table < 0, axis=1) | (np.abs(table.sum(axis=1) - 1.0) > 1e-9))
            if bad.any():
                raise ValueError(f"{name} row {np.argmax(bad)} is not a probability distribution")
        object.__setattr__(self, "hidden_weights", p)
        object.__setattr__(self, "response_a", ra)
        object.__setattr__(self, "response_b", rb)
        object.__setattr__(self, "dropped", dropped)


def _responses(ops, povm: Povm) -> np.ndarray:
    """Table of tr(O_k M_i) over a family of operators and the effects M_i.

    tr(O M) = vec(O) . vec(M^T), so the table is one matrix product.
    """
    if len(ops[0]) != povm.dim:
        raise ValueError(f"POVM dimension {povm.dim} does not match operator dimension {len(ops[0])}")
    effects_t = stack(povm.effects, povm.dim).transpose(0, 2, 1).reshape(len(povm), -1)
    return stack(ops, povm.dim).reshape(len(ops), -1) @ effects_t.T


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
    """The classical-model rules applied to every term of a decomposition."""

    tables: tuple  # responses tr(O_k M_i) of sides A and B, [term, effect]
    tr: np.ndarray  # traces [side, term]: each table row sums to tr(O_k)
    kept: np.ndarray  # the terms with no traceless side
    weights: np.ndarray  # hidden weights q_k tr(A_k) tr(B_k), 0 on dropped terms
    normalised: bool  # whether the hidden weights sum to 1
    bad: np.ndarray  # [rule, term]: which of _RULES rejects which term
    effect: np.ndarray  # [rule, term]: the effect a rejection names, -1 for none

    def failure(self) -> LhvConstructionError | None:
        """The first failing term's first failing rule, else the weight sum."""
        failing = self.bad.any(axis=0)
        if failing.any():
            k = int(np.argmax(failing))
            rule = int(np.argmax(self.bad[:, k]))
            kind, side = _RULES[rule]
            s, i = "AB".index(side), int(self.effect[rule, k])
            text = _MESSAGES[kind].format(i=i, side=side, v=self.tables[s][k, i], t=self.tr[s, k])
            return LhvConstructionError(f"term {k}: {text}", term=k, effect=None if i < 0 else i)
        if self.normalised:
            return None
        return LhvConstructionError(
            f"hidden weights sum to {np.sum(self.weights):.9g}; decomposition is not normalised"
        )


def _rules(p: np.ndarray, tables: tuple) -> _Terms:
    """Apply the classical-model rules to all terms at once, as masks: a
    response is complex, or a traceless side responds, past ATOL (a silent
    traceless side drops its term); a kept side fails with a response below
    -ATOL or a trace at most ATOL."""
    real = [t.real for t in tables]
    tr = np.array([r.sum(axis=1) for r in real])
    traceless = np.abs(tr) <= ATOL
    kept = ~traceless.any(axis=0)
    imag, size = [np.abs(t.imag) for t in tables], [np.abs(r) for r in real]
    rules = [(x.max(axis=1) > ATOL, x.argmax(axis=1)) for x in imag]
    rules += [(t & (x.max(axis=1) > ATOL), x.argmax(axis=1)) for t, x in zip(traceless, size)]
    none = np.full(len(p), -1)
    for r, t in zip(real, tr):
        rules += [(kept & (r.min(axis=1) < -ATOL), r.argmin(axis=1)), (kept & (t <= ATOL), none)]
    bad, effect = (np.array(x) for x in zip(*rules))
    weights = np.where(kept, p * tr[0] * tr[1], 0.0)
    return _Terms(tables, tr, kept, weights, abs(float(np.sum(weights)) - 1.0) <= 1e-6, bad, effect)


def generalized_positive(x, povm: Povm) -> bool:
    """Whether tr(x M) >= -ATOL for every effect M and tr(x) > ATOL.

    This is positivity relative to the measurement class: a non-PSD operator
    can still behave as a valid state for every effect of this POVM.
    """
    x = as_matrix(x, "x")
    resp = _responses([x], povm)[0]
    tr = complex(np.trace(x))
    if abs(tr.imag) > ATOL or tr.real <= ATOL:
        return False
    if np.max(np.abs(resp.imag)) > ATOL:
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
    """
    terms = _rules(dec.p, (_responses(dec.A, povm_a), _responses(dec.B, povm_b)))
    if (error := terms.failure()) is not None:
        raise error
    kept = terms.kept
    ra, rb = (np.zeros(t.shape) for t in terms.tables)
    for table, t, tr in zip((ra, rb), terms.tables, terms.tr):
        rows = np.clip(t.real[kept], 0.0, None) / tr[kept, None]
        table[kept] = rows / rows.sum(axis=1, keepdims=True)
    born = ((terms.tables[0].T * dec.p) @ terms.tables[1]).real
    deviation = float(np.max(np.abs((terms.weights * ra.T) @ rb - born)))
    if deviation > BORN_TOL:
        raise LhvConstructionError(
            f"model deviates from Born probabilities by {deviation:.3e}; "
            f"dropped terms carried correlation for this POVM pair"
        )
    return LhvModel(terms.weights, ra, rb, tuple(np.flatnonzero(~kept)), deviation)


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


def _attempt(dec, label, povm_a, povm_b) -> ScanRecord:
    try:
        model = build_lhv(dec, povm_a, povm_b)
        return ScanRecord(label, True, model.born_deviation)
    except LhvConstructionError as exc:
        return ScanRecord(label, False, None, str(exc))


@cache
def pauli_pairs() -> tuple[tuple[str, Povm, Povm], ...]:
    """The trivial identity pair plus all nine projective Pauli pairs."""
    pauli = tuple((f"{a}|{b}", projective_povm(a), projective_povm(b)) for a in "xyz" for b in "xyz")
    return (("identity|identity", identity_povm(2), identity_povm(2)), *pauli)


def _magic_threshold(dec: SeparableDecomposition) -> float:
    """The largest c in (0, 1] at which :func:`build_lhv` succeeds on
    ``magic_povm(c)`` and its transpose, or 0.0 if there is none.

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
    povm = magic_povm(1.0)
    terms = _rules(dec.p, (_responses(dec.A, povm), _responses(dec.B, povm.transpose())))
    bad = terms.bad.copy()
    cut = bad[_NEGATIVE] & (terms.effect[_NEGATIVE] == 1)  # [side, term]: t - mu < -ATOL
    bad[_NEGATIVE] &= ~cut
    if bad.any() or not terms.normalised:
        return 0.0
    mu = np.array([t[:, 0].real for t in terms.tables])
    return float(np.min(terms.tr[cut] / mu[cut], initial=1.0))


def povm_scan(
    dec: SeparableDecomposition,
    family: str = "pauli",
    budget: int = 16,
) -> ScanReport:
    """Attempt the classical-model construction across a family of POVM pairs.

    ``family="pauli"`` scans the identity pair and the nine projective Pauli
    pairs.  ``family="magic"`` scans the two-effect family built from the
    magic-state projector at ``budget`` strengths (the B side measures the
    transposed effects).  Its threshold is the largest strength at which the
    construction succeeds, in closed form (:func:`_magic_threshold`), verified
    by one ``build_lhv`` call, which raises if the Born check fails.  A custom
    iterable of (label, povm_a, povm_b) triples is also accepted.  The scan is
    deterministic for fixed inputs.
    """
    if isinstance(family, str) and family not in ("pauli", "magic"):
        raise ValueError(f"unknown POVM family {family!r}")
    if family == "magic":
        if budget < 1:
            raise ValueError(f"the magic family needs a budget of at least 1, got {budget}")

        def attempt(c: float) -> ScanRecord:
            povm = magic_povm(c)
            return _attempt(dec, f"magic:{c:.8f}", povm, povm.transpose())

        rows = tuple(attempt((i + 1) / budget) for i in range(budget))
        threshold = _magic_threshold(dec)
        if threshold > 0:  # the Born verification; raises if it fails
            povm = magic_povm(threshold)
            build_lhv(dec, povm, povm.transpose())
        return ScanReport("magic", rows, threshold=threshold)
    name, pairs = ("pauli", pauli_pairs()) if family == "pauli" else ("custom", family)
    return ScanReport(name, tuple(_attempt(dec, label, pa, pb) for label, pa, pb in pairs))
