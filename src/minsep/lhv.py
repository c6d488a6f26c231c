"""Local hidden variable models extracted from separable decompositions.

Given rho = sum_k q_k A^k tensor B^k and a pair of local POVMs, the joint
outcome probabilities split as sum_k q_k tr(A^k M_i) tr(B^k N_j).  Whenever
every response tr(A^k M_i) is nonnegative, dividing by the traces turns the
sum into a classical model: hidden weights p_k = q_k tr(A^k) tr(B^k) with
local response distributions.  Terms whose operator is traceless on one side
contribute nothing -- but only if that side's responses all vanish; a
traceless operator that still responds to some effect carries correlation no
classical weight can represent, and the construction fails.

The resulting model is an exact identity, not an approximation: the maximum
deviation from the Born probabilities is verified at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_matrix, kron, stack
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
        p = np.asarray(self.hidden_weights, dtype=float)
        ra = np.asarray(self.response_a, dtype=float)
        rb = np.asarray(self.response_b, dtype=float)
        if np.any(p < 0):
            raise ValueError("hidden weights must be nonnegative")
        if abs(float(np.sum(p)) - 1.0) > 1e-6:
            raise ValueError(f"hidden weights sum to {np.sum(p):.9g}, expected 1")
        for name, table in (("response_a", ra), ("response_b", rb)):
            if table.shape[0] != len(p):
                raise ValueError(f"{name} must have one row per term")
            for i, row in enumerate(table):
                if i in self.dropped:
                    continue
                if np.any(row < 0) or abs(float(np.sum(row)) - 1.0) > 1e-9:
                    raise ValueError(f"{name} row {i} is not a probability distribution")
        for arr in (p, ra, rb):
            arr.setflags(write=False)
        object.__setattr__(self, "hidden_weights", p)
        object.__setattr__(self, "response_a", ra)
        object.__setattr__(self, "response_b", rb)
        object.__setattr__(self, "dropped", tuple(int(i) for i in self.dropped))


def _responses(ops, povm: Povm) -> np.ndarray:
    """Table of tr(O_k M_i) over a family of operators and the effects M_i.

    tr(O M) = vec(O) . vec(M^T), so the table is one matrix product.
    """
    effects_t = stack(povm.effects, povm.dim).transpose(0, 2, 1).reshape(len(povm), -1)
    return stack(ops, povm.dim).reshape(len(ops), -1) @ effects_t.T


def _real_responses(resp: np.ndarray, term: int) -> np.ndarray:
    worst = int(np.argmax(np.abs(resp.imag)))
    if np.abs(resp.imag[worst]) > ATOL:
        raise LhvConstructionError(
            f"term {term}: response to effect {worst} is complex "
            f"({resp[worst]:.3e}); no classical model",
            term=term,
            effect=worst,
        )
    return resp.real


def generalized_positive(x, povm: Povm, tol: float = ATOL) -> bool:
    """Whether tr(x M) >= -tol for every effect M and tr(x) > tol.

    This is positivity relative to the measurement class: a non-PSD operator
    can still behave as a valid state for every effect of this POVM.
    """
    x = as_matrix(x, "x")
    tr = complex(np.trace(x))
    if abs(tr.imag) > tol or tr.real <= tol:
        return False
    resp = _responses([x], povm)[0]
    if np.max(np.abs(resp.imag)) > tol:
        return False
    return bool(np.min(resp.real) >= -tol)


def build_lhv(
    dec: SeparableDecomposition,
    povm_a: Povm,
    povm_b: Povm,
    verify_tol: float = BORN_TOL,
) -> LhvModel:
    """Construct the classical model of a decomposition for one POVM pair.

    Raises :class:`LhvConstructionError` when a term violates generalised
    positivity, when a traceless term still responds to some effect, or when
    the assembled model fails to reproduce the Born probabilities (which
    happens when dropped terms carried correlation).
    """
    n = dec.terms
    ra = np.zeros((n, len(povm_a)))
    rb = np.zeros((n, len(povm_b)))
    weights = np.zeros(n)
    dropped = []
    table_a = _responses(dec.A, povm_a)
    table_b = _responses(dec.B, povm_b)
    for k, qk in enumerate(dec.p):
        resp_a = _real_responses(table_a[k], k)
        resp_b = _real_responses(table_b[k], k)
        tr_a = float(np.sum(resp_a))  # completeness: responses sum to tr(op)
        tr_b = float(np.sum(resp_b))
        drop = False
        for side, tr, resp in (("A", tr_a, resp_a), ("B", tr_b, resp_b)):
            if abs(tr) <= ATOL:
                worst = int(np.argmax(np.abs(resp)))
                if abs(resp[worst]) > ATOL:
                    raise LhvConstructionError(
                        f"term {k}: side-{side} operator is traceless but responds "
                        f"to effect {worst} with weight {resp[worst]:.3e}",
                        term=k,
                        effect=worst,
                    )
                drop = True
        if drop:
            dropped.append(k)
            continue
        for side, tr, resp, povm in (("A", tr_a, resp_a, povm_a), ("B", tr_b, resp_b, povm_b)):
            worst = int(np.argmin(resp))
            if resp[worst] < -ATOL:
                raise LhvConstructionError(
                    f"term {k}: side-{side} response to effect {worst} is negative "
                    f"({resp[worst]:.3e}); operator is not generalised positive",
                    term=k,
                    effect=worst,
                )
            if tr <= ATOL:
                raise LhvConstructionError(
                    f"term {k}: side-{side} operator has nonpositive trace {tr:.3e}",
                    term=k,
                )
        row_a = np.clip(resp_a, 0.0, None) / tr_a
        row_b = np.clip(resp_b, 0.0, None) / tr_b
        ra[k] = row_a / np.sum(row_a)
        rb[k] = row_b / np.sum(row_b)
        weights[k] = qk * tr_a * tr_b

    total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-6:
        raise LhvConstructionError(
            f"hidden weights sum to {total:.9g}; decomposition is not normalised"
        )

    model = LhvModel(weights, ra, rb, tuple(dropped), 0.0)
    rho = dec.reconstruct()
    deviation = 0.0
    for i in range(len(povm_a)):
        for j in range(len(povm_b)):
            born = born_probability(rho, povm_a, povm_b, i, j)
            deviation = max(deviation, abs(lhv_probability(model, i, j) - born))
    if deviation > verify_tol:
        raise LhvConstructionError(
            f"model deviates from Born probabilities by {deviation:.3e}; "
            f"dropped terms carried correlation for this POVM pair"
        )
    return LhvModel(weights, ra, rb, tuple(dropped), deviation)


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


def pauli_pairs() -> list[tuple[str, Povm, Povm]]:
    """The trivial identity pair plus all nine projective Pauli pairs."""
    pairs = [("identity|identity", identity_povm(2), identity_povm(2))]
    for wa in "xyz":
        for wb in "xyz":
            pairs.append((f"{wa}|{wb}", projective_povm(wa), projective_povm(wb)))
    return pairs


def povm_scan(
    dec: SeparableDecomposition,
    family: str = "pauli",
    budget: int = 16,
) -> ScanReport:
    """Attempt the classical-model construction across a family of POVM pairs.

    ``family="pauli"`` scans the identity pair and the nine projective Pauli
    pairs.  ``family="magic"`` scans the two-effect family built from the
    magic-state projector at ``budget`` strengths (the B side measures the
    transposed effects) and locates, by bisection to 1e-6, the largest
    strength for which the construction still succeeds.  A custom iterable
    of (label, povm_a, povm_b) triples is also accepted.  The scan is
    deterministic for fixed inputs.
    """
    if isinstance(family, str):
        if family == "pauli":
            rows = tuple(_attempt(dec, label, pa, pb) for label, pa, pb in pauli_pairs())
            return ScanReport("pauli", rows)
        if family == "magic":
            def attempt(c: float) -> ScanRecord:
                povm = magic_povm(c)
                return _attempt(dec, f"magic:{c:.8f}", povm, povm.transpose())

            rows = tuple(attempt((i + 1) / budget) for i in range(budget))
            lo, hi = 0.0, 1.0
            if attempt(1.0).success:
                lo = 1.0
            else:
                while hi - lo > 1e-6:
                    mid = 0.5 * (lo + hi)
                    if attempt(mid).success:
                        lo = mid
                    else:
                        hi = mid
            return ScanReport("magic", rows, threshold=lo)
        raise ValueError(f"unknown POVM family {family!r}")
    rows = tuple(_attempt(dec, label, pa, pb) for label, pa, pb in family)
    return ScanReport("custom", rows)
