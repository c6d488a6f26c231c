"""Local hidden variable models: construction, exactness, POVM scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_max_entangled
from minsep import lhv
from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, phase_point_operators
from minsep.crossnorm import DiagonalScaling
from minsep.decompositions import SeparableDecomposition, cross_norm_decomposition, random_unitary
from minsep.lhv import (
    LhvConstructionError,
    born_probability,
    build_lhv,
    generalized_positive,
    lhv_probability,
    povm_scan,
)
from minsep.schmidt import operator_schmidt
from minsep.states import Povm, bell_state, identity_povm, magic_povm, projective_povm, random_density
from minsep.tolerances import ATOL
from minsep.transport import (
    build_maps,
    build_w_basis,
    check_condition_a,
    construct_alignment,
    transported_decomposition,
)


def phase_point_decomposition():
    ws = phase_point_operators().ops
    return SeparableDecomposition(
        np.full(4, 0.25), tuple(ws), tuple(w.T for w in ws)
    )


def stabiliser_decomposition():
    a = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    b = (PAULI_I, PAULI_X, PAULI_Y.T, PAULI_Z)
    return SeparableDecomposition(np.full(4, 0.25), a, b)


def example2_decomposition():
    p0 = np.sqrt(2) * np.diag([1.0, 0.0]).astype(complex)
    p1 = np.sqrt(2) * np.diag([0.0, 1.0]).astype(complex)
    a = (p0, p1, PAULI_X, PAULI_Y)
    b = (p0, p1, PAULI_X, PAULI_Y.T)
    return SeparableDecomposition(np.full(4, 0.25), a, b)


class TestGeneralizedPositive:
    def test_phase_point_vs_z(self):
        w1 = phase_point_operators().ops[0]
        assert generalized_positive(w1, projective_povm("z"))

    def test_traceless_pauli_fails_any_complete_povm(self):
        for axis in "xyz":
            assert not generalized_positive(PAULI_X, projective_povm(axis))

    def test_traceless_pauli_passes_identity_trace_test_only(self):
        # Even against the trivial measurement the trace condition fails.
        assert not generalized_positive(PAULI_X, identity_povm(2))

    def test_maximally_mixed(self):
        assert generalized_positive(np.eye(2) / 2, projective_povm("x"))

    def test_negative_response_detected(self):
        # W1 has Bloch vector (1, 1, 1): at large c its response to the
        # complement effect I - c|m><m| goes negative.
        w1 = phase_point_operators().ops[0]
        assert not generalized_positive(w1, magic_povm(0.9))
        assert generalized_positive(w1, magic_povm(0.5))


class TestBuildLhv:
    def test_example_two_tables(self):
        dec = example2_decomposition()
        povm = projective_povm("z")
        model = build_lhv(dec, povm, povm)
        np.testing.assert_allclose(model.hidden_weights, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(model.response_a[:, 0], [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(model.response_a[:, 1], [0, 1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(model.response_b[:, 0], [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(model.response_b[:, 1], [0, 1, 0, 0], atol=1e-12)
        assert model.dropped == (2, 3)

    def test_phase_point_all_pauli_pairs_exact(self):
        dec = phase_point_decomposition()
        for wa in "xyz":
            for wb in "xyz":
                model = build_lhv(dec, projective_povm(wa), projective_povm(wb))
                assert model.born_deviation <= 1e-10
                assert model.dropped == ()

    def test_stabiliser_fails_correlated_pair(self):
        dec = stabiliser_decomposition()
        with pytest.raises(LhvConstructionError, match="traceless"):
            build_lhv(dec, projective_povm("x"), projective_povm("x"))

    def test_stabiliser_fails_even_uncorrelated_pairs(self):
        # The sigma_x term responds to the x measurement on side A although
        # the Born statistics of the cross pair would match a product model.
        dec = stabiliser_decomposition()
        exc = pytest.raises(LhvConstructionError, match="traceless")
        with exc as info:
            build_lhv(dec, projective_povm("x"), projective_povm("z"))
        assert info.value.term == 1

    def test_stabiliser_succeeds_on_identity_pair(self):
        dec = stabiliser_decomposition()
        model = build_lhv(dec, identity_povm(2), identity_povm(2))
        assert model.dropped == (1, 2, 3)
        assert abs(lhv_probability(model, 0, 0) - 1.0) < 1e-12

    def test_diagnostic_names_term_and_effect(self):
        dec = phase_point_decomposition()
        povm = magic_povm(0.9)
        with pytest.raises(LhvConstructionError) as info:
            build_lhv(dec, povm, povm.transpose())
        assert info.value.term is not None
        assert info.value.effect is not None

    def test_dropped_rows_are_zero(self):
        model = build_lhv(example2_decomposition(), projective_povm("z"), projective_povm("z"))
        for i in model.dropped:
            assert np.all(model.response_a[i] == 0)
            assert model.hidden_weights[i] == 0

    def test_kept_rows_are_distributions(self):
        dec = phase_point_decomposition()
        model = build_lhv(dec, projective_povm("x"), projective_povm("y"))
        for table in (model.response_a, model.response_b):
            for i in range(dec.terms):
                assert np.all(table[i] >= 0)
                assert abs(np.sum(table[i]) - 1.0) < 1e-12
        assert abs(np.sum(model.hidden_weights) - 1.0) < 1e-12


class TestLhvModelChecks:
    """LhvModel's own checks, which the scan applies to every pair in array form."""

    @pytest.mark.parametrize(
        "weights, ra, rb, dropped, message",
        [
            ([], np.zeros((0, 2)), np.zeros((0, 2)), (), "hidden weights sum to 0, expected 1"),
            ([-0.5, 1.5], np.eye(2), np.eye(2), (), "hidden weights must be nonnegative"),
            ([0.5, 0.4], np.eye(2), np.eye(2), (), "hidden weights sum to 0.9, expected 1"),
            ([0.5, 0.5], [[1, 0], [0.5, 0.2]], np.eye(2), (), "response_a row 1 is not a probability distribution"),
            ([0.5, 0.5], np.eye(2), [[1, 0], [-0.5, 1.5]], (), "response_b row 1 is not a probability distribution"),
            ([0.5, 0.5], np.eye(2), np.eye(3)[:2], (0, 1, 7), None),  # dropped rows need not be distributions
            ([1.0, 0.0], [[1, 0], [0, 0]], [[1, 0], [0, 0]], (1,), None),
            ([1.0], np.eye(2), [[1.0]], (), "response_a must have one row per term"),
        ],
    )
    def test_messages(self, weights, ra, rb, dropped, message):
        if message is None:
            assert lhv.LhvModel(np.array(weights, float), ra, rb, dropped).dropped == dropped
            return
        with pytest.raises(ValueError, match=f"^{message}$"):
            lhv.LhvModel(np.array(weights, float), ra, rb, dropped)


class TestProbabilities:
    def test_correlated_z_outcomes(self):
        dec = phase_point_decomposition()
        povm = projective_povm("z")
        model = build_lhv(dec, povm, povm)
        bell = bell_state()
        for k, l in ((0, 0), (1, 1)):
            assert abs(lhv_probability(model, k, l) - 0.5) < 1e-12
            assert abs(born_probability(bell, povm, povm, k, l) - 0.5) < 1e-12
        for k, l in ((0, 1), (1, 0)):
            assert abs(lhv_probability(model, k, l)) < 1e-12

    def test_uncorrelated_axes_uniform(self):
        dec = phase_point_decomposition()
        pa, pb = projective_povm("x"), projective_povm("z")
        model = build_lhv(dec, pa, pb)
        bell = bell_state()
        for k in range(2):
            for l in range(2):
                assert abs(lhv_probability(model, k, l) - 0.25) < 1e-12
                assert abs(born_probability(bell, pa, pb, k, l) - 0.25) < 1e-12

    def test_outcomes_sum_to_one(self):
        dec = phase_point_decomposition()
        model = build_lhv(dec, projective_povm("y"), projective_povm("x"))
        total = sum(lhv_probability(model, k, l) for k in range(2) for l in range(2))
        assert abs(total - 1.0) < 1e-12

    def test_born_matches_lhv_everywhere(self):
        dec = phase_point_decomposition()
        rho = dec.reconstruct()
        for wa in "xyz":
            for wb in "xyz":
                pa, pb = projective_povm(wa), projective_povm(wb)
                model = build_lhv(dec, pa, pb)
                for k in range(2):
                    for l in range(2):
                        assert abs(
                            lhv_probability(model, k, l) - born_probability(rho, pa, pb, k, l)
                        ) <= 1e-10


class TestPovmScan:
    def test_phase_point_pauli_scan_all_succeed(self):
        report = povm_scan(phase_point_decomposition(), family="pauli")
        assert len(report.rows) == 10
        assert all(r.success for r in report.rows)

    def test_stabiliser_scan_only_identity(self):
        report = povm_scan(stabiliser_decomposition(), family="pauli")
        successes = [r.label for r in report.rows if r.success]
        assert successes == ["identity|identity"]

    def test_magic_threshold(self):
        # Oracle: the construction survives until the weakest effect response
        # crosses zero, at c* = 1 / max_i tr(W_i |m><m|).
        ws = phase_point_operators().ops
        m = magic_povm(1.0).effects[0]
        c_star = 1.0 / max(np.trace(w @ m).real for w in ws)
        report = povm_scan(phase_point_decomposition(), family="magic", budget=8)
        assert report.threshold is not None
        assert abs(report.threshold - c_star) < 1e-5
        assert abs(c_star - (np.sqrt(3) - 1)) < 1e-12
        small_c = [r for r in report.rows if float(r.label.split(":")[1]) <= 0.5]
        assert all(r.success for r in small_c)

    def test_custom_family(self):
        pairs = [("z|z", projective_povm("z"), projective_povm("z"))]
        report = povm_scan(phase_point_decomposition(), family=pairs)
        assert report.family == "custom"
        assert report.rows[0].success

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            povm_scan(phase_point_decomposition(), family="nope")


    @pytest.mark.parametrize("budget", [0, -1])
    def test_magic_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget of at least 1"):
            povm_scan(phase_point_decomposition(), family="magic", budget=budget)

    def test_magic_budget_capped(self):
        dec = phase_point_decomposition()
        try:
            assert len(povm_scan(dec, family="magic", budget=10_000).rows) == 10_000
        finally:
            lhv._magic_pairs.cache_clear()  # the 10,000-pair grid is not kept for later tests
        with pytest.raises(ValueError, match="budget of at most 10000, got 10001"):
            povm_scan(dec, family="magic", budget=10_001)

    def test_magic_grids_kept_for_eight_budgets(self):
        dec = phase_point_decomposition()
        lhv._magic_pairs.cache_clear()
        try:
            for budget in range(1, 13):
                povm_scan(dec, family="magic", budget=budget)
            assert lhv._magic_pairs.cache_info().currsize <= 8
            povm_scan(dec, family="magic", budget=16)
            hits = lhv._magic_pairs.cache_info().hits
            povm_scan(dec, family="magic", budget=16)
            assert lhv._magic_pairs.cache_info().hits == hits + 1
        finally:
            lhv._magic_pairs.cache_clear()

    def test_pauli_pairs_built_once(self):
        pairs = lhv.pauli_pairs()
        assert lhv.pauli_pairs() is pairs
        assert isinstance(pairs, tuple) and len(pairs) == 10
        for _, pa, pb in pairs:
            for effect in (*pa.effects, *pb.effects):
                assert not effect.flags.writeable


class TestDimensionMismatch:
    """A qubit POVM on qutrit operators is named, not a numpy reshape error."""

    MESSAGE = "POVM dimension 2 does not match operator dimension 3"
    DEC = SeparableDecomposition(np.ones(1), (np.eye(3) / 3,), (np.eye(3) / 3,))

    def test_build_lhv(self):
        with pytest.raises(ValueError, match=self.MESSAGE) as info:
            build_lhv(self.DEC, projective_povm("z"), identity_povm(3))
        assert not isinstance(info.value, LhvConstructionError)
        with pytest.raises(ValueError, match=self.MESSAGE):
            build_lhv(self.DEC, identity_povm(3), projective_povm("z"))

    def test_generalized_positive(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            generalized_positive(np.eye(3) / 3, projective_povm("z"))

    @pytest.mark.parametrize("family", ["pauli", "magic"])
    def test_povm_scan(self, family):
        with pytest.raises(ValueError, match=self.MESSAGE):
            povm_scan(self.DEC, family=family)

# The bisection povm_scan used to locate the magic threshold with, kept as
# the oracle.
def bisection_threshold(dec):
    def succeeds(c):
        povm = magic_povm(c)
        try:
            build_lhv(dec, povm, povm.transpose())
            return True
        except LhvConstructionError:
            return False

    lo, hi = 0.0, 1.0
    if succeeds(1.0):
        return 1.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if succeeds(mid):
            lo = mid
        else:
            hi = mid
    return lo


# Seeds 0-15 give c* = 0; 38, 41, 42 and 106 (one of their two alignments
# each) give 0 < c* < 1, the interval's upper end.
MAGIC_SEEDS = (*range(16), 38, 41, 42, 106)


def transported_qubit_decompositions(seeds=MAGIC_SEEDS):
    for seed in seeds:
        os = operator_schmidt(near_max_entangled(seed, 2))
        cond_a = check_condition_a(os)
        maps = build_maps(os)
        for t_seed in (None, seed):
            w = build_w_basis(maps, construct_alignment(cond_a, seed=t_seed))
            yield transported_decomposition(maps, w)


MAGIC_AXIS = (PAULI_X + PAULI_Y + PAULI_Z) / np.sqrt(3)


def single_term(a, weight=1.0, b=PAULI_I / 2):
    """The one-term decomposition weight * a tensor b."""
    return SeparableDecomposition(np.full(1, weight), (a,), (b,))


def bloch_operator(lam):
    """(I + lam n.sigma) / 2 with n the magic axis: tr = 1 and tr(O m) = (1 + lam) / 2,
    so c* = min(1, 2 / (1 + lam)) for lam >= -1, and 0 below."""
    return (PAULI_I + lam * MAGIC_AXIS) / 2


class TestMagicThresholdClosedForm:
    @pytest.mark.parametrize("lam, expected", [(0.5, 1.0), (1.0002, 2 / 2.0002), (3.0, 0.5), (-2.0, 0.0)])
    def test_single_term(self, lam, expected):
        report = povm_scan(single_term(bloch_operator(lam)), family="magic")
        assert abs(report.threshold - expected) <= 1e-15

    @pytest.mark.parametrize(
        "dec",
        [
            single_term(PAULI_I / 2, weight=2.0),  # hidden weights sum to 2 at every c
            single_term((PAULI_I + 0.3j * PAULI_Z) / 2),  # complex response at every c
            single_term(-bloch_operator(-3.0), b=-bloch_operator(-3.0).T),  # traces -1, responses 1
            stabiliser_decomposition(),  # traceless terms that respond
        ],
        ids=["unnormalised", "complex", "negative-trace", "pauli-frame"],
    )
    def test_failing_at_every_strength_gives_zero(self, dec):
        report = povm_scan(dec, family="magic", budget=8)
        assert report.threshold == 0.0
        assert not any(row.success for row in report.rows)

    def test_phase_point_is_sqrt3_minus_1(self):
        report = povm_scan(phase_point_decomposition(), family="magic")
        assert abs(report.threshold - (np.sqrt(3) - 1)) <= 1e-15

    def test_agrees_with_bisection(self):
        inside = 0
        edges = [single_term(bloch_operator(lam)) for lam in (0.5, 1.0002, 1.5, -2.0)]
        edges += [
            single_term(PAULI_I / 2, weight=2.0),
            single_term((PAULI_I + 0.3j * PAULI_Z) / 2),
            single_term(-bloch_operator(-3.0), b=-bloch_operator(-3.0).T),
        ]
        for dec in [phase_point_decomposition(), *edges, *transported_qubit_decompositions()]:
            report = povm_scan(dec, family="magic")
            c_star = report.threshold
            lo = bisection_threshold(dec)
            assert lo <= c_star <= lo + 1e-6
            for row in report.rows:
                assert row.success == (float(row.label.split(":")[1]) <= c_star), row.label
            if 0.0 < c_star < 1.0:
                inside += 1
                povm = magic_povm(c_star * (1 + 1e-6))
                with pytest.raises(LhvConstructionError):
                    build_lhv(dec, povm, povm.transpose())
        assert inside >= 5  # the interval's upper end is exercised, not only 0 and 1

    @pytest.mark.parametrize("budget", [1, 4, 16])
    def test_one_table_product_per_side_at_every_budget(self, monkeypatch, budget):
        """A magic scan applies the rules once, to one response table per side
        over the whole grid, and once more, to one pair, in the Born
        verification at c*: the number of table products does not grow with
        the budget."""
        rules, calls = lhv._rules, []

        def counting(p, tables):
            calls.append([len(t) for t in tables])  # the pairs each product covers
            return rules(p, tables)

        monkeypatch.setattr(lhv, "_rules", counting)
        decs = [phase_point_decomposition(), *transported_qubit_decompositions((0, 106))]
        verified = 0
        for dec in decs:
            calls.clear()
            threshold = povm_scan(dec, family="magic", budget=budget).threshold
            assert calls == [[budget, budget]] + [[1, 1]] * (threshold > 0)
            verified += threshold > 0
        assert 0 < verified < len(decs)  # scans with and without the verification


# The per-term loop build_lhv and the stacked _magic_threshold that the
# single array pass replaced, kept as oracles.
def oracle_responses(ops, povm):
    effects_t = np.stack(povm.effects).transpose(0, 2, 1).reshape(len(povm), -1)
    return np.stack(ops).reshape(len(ops), -1) @ effects_t.T


def oracle_real_responses(resp, term):
    worst = int(np.argmax(np.abs(resp.imag)))
    if np.abs(resp.imag[worst]) > ATOL:
        raise LhvConstructionError(
            f"term {term}: response to effect {worst} is complex "
            f"({resp[worst]:.3e}); no classical model",
            term=term,
            effect=worst,
        )
    return resp.real


def oracle_build_lhv(dec, povm_a, povm_b):
    """(hidden weights, response_a, response_b, dropped, born_deviation)."""
    n = dec.terms
    ra = np.zeros((n, len(povm_a)))
    rb = np.zeros((n, len(povm_b)))
    weights = np.zeros(n)
    dropped = []
    table_a = oracle_responses(dec.A, povm_a)
    table_b = oracle_responses(dec.B, povm_b)
    for k, qk in enumerate(dec.p):
        resp_a = oracle_real_responses(table_a[k], k)
        resp_b = oracle_real_responses(table_b[k], k)
        tr_a = float(np.sum(resp_a))
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
        for side, tr, resp in (("A", tr_a, resp_a), ("B", tr_b, resp_b)):
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
    rho = dec.reconstruct()
    deviation = 0.0
    for i in range(len(povm_a)):
        for j in range(len(povm_b)):
            born = born_probability(rho, povm_a, povm_b, i, j)
            deviation = max(deviation, abs(float(np.sum(weights * ra[:, i] * rb[:, j])) - born))
    if deviation > lhv.BORN_TOL:
        raise LhvConstructionError(
            f"model deviates from Born probabilities by {deviation:.3e}; "
            f"dropped terms carried correlation for this POVM pair"
        )
    return weights, ra, rb, tuple(dropped), deviation


def oracle_magic_threshold(dec):
    povm = magic_povm(1.0)
    resp = np.stack([oracle_responses(dec.A, povm), oracle_responses(dec.B, povm.transpose())])
    mu, rest, tr = resp.real[..., 0], resp.real[..., 1], resp.real.sum(axis=2)
    traceless = np.abs(tr) <= ATOL
    kept = ~traceless.any(axis=0)
    if (
        np.any(np.abs(resp.imag) > ATOL)
        or np.any(traceless[..., None] & (np.abs(resp.real) > ATOL))
        or np.any(mu[:, kept] < -ATOL)
        or np.any(tr[:, kept] <= ATOL)
        or abs(float(np.sum(dec.p[kept] * tr[0, kept] * tr[1, kept])) - 1.0) > 1e-6
    ):
        return 0.0
    over = kept & (rest < -ATOL)
    return float(np.min(tr[over] / mu[over], initial=1.0))


def cross_norm_decompositions():
    """Cross-norm family members of random 2 x 2 states: Hermitian-frame ones
    (identity mixing) and complex ones (a wide random isometry)."""
    for seed in range(4):
        os = operator_schmidt(random_density(900 + seed, 2, 2))
        rng = np.random.default_rng(seed)
        scaling = DiagonalScaling(np.exp(rng.normal(0.0, 0.4, os.D)))
        for u in (np.eye(os.D, dtype=complex), random_unitary(os.D + 1, seed)[: os.D]):
            n = u.shape[1]
            yield cross_norm_decomposition(os, scaling, u, rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 2.0, n))


ORACLE_DECOMPOSITIONS = {
    "phase-point": [phase_point_decomposition()],
    "stabiliser": [stabiliser_decomposition()],
    "example-2": [example2_decomposition()],
    "one-term": [
        *(single_term(bloch_operator(lam)) for lam in (0.5, 1.0002, 1.5, 3.0, -2.0)),
        single_term(PAULI_I / 2, weight=2.0),
        single_term((PAULI_I + 0.3j * PAULI_Z) / 2),
        single_term(-bloch_operator(-3.0), b=-bloch_operator(-3.0).T),
        single_term(-0.8 * ATOL * PAULI_I),  # responses within -ATOL, trace below -ATOL
    ],
    "transported": list(transported_qubit_decompositions()),
    "cross-norm": list(cross_norm_decompositions()),
}


def oracle_pairs():
    yield from lhv.pauli_pairs()
    for c in (0.25, 0.5, 0.7, 0.9, 1.0):
        povm = magic_povm(c)
        yield f"magic:{c}", povm, povm.transpose()
    yield "identity|z", identity_povm(2), projective_povm("z")


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestArrayPassMatchesLoop:
    @pytest.mark.parametrize("family", ORACLE_DECOMPOSITIONS)
    def test_models_and_failures(self, family):
        for dec in ORACLE_DECOMPOSITIONS[family]:
            for label, pa, pb in oracle_pairs():
                try:
                    expected = oracle_build_lhv(dec, pa, pb)
                except LhvConstructionError as exc:
                    with pytest.raises(LhvConstructionError) as info:
                        build_lhv(dec, pa, pb)
                    assert type(info.value) is LhvConstructionError
                    got = (str(info.value), info.value.term, info.value.effect)
                    assert got == (str(exc), exc.term, exc.effect), label
                    continue
                model = build_lhv(dec, pa, pb)
                weights, ra, rb, dropped, deviation = expected
                assert bits(model.hidden_weights) == bits(weights), label
                assert bits(model.response_a) == bits(ra), label
                assert bits(model.response_b) == bits(rb), label
                assert model.dropped == dropped, label
                assert abs(model.born_deviation - deviation) <= 1e-15, label

    @pytest.mark.parametrize("family", ORACLE_DECOMPOSITIONS)
    def test_magic_thresholds(self, family):
        for dec in ORACLE_DECOMPOSITIONS[family]:
            assert povm_scan(dec, family="magic", budget=1).threshold == oracle_magic_threshold(dec)

    def test_every_rule_is_exercised(self):
        rules = ("complex", "traceless", "negative", "trace", "sum")
        seen = set()
        for decs in ORACLE_DECOMPOSITIONS.values():
            for dec in decs:
                for _, pa, pb in oracle_pairs():
                    try:
                        build_lhv(dec, pa, pb)
                        seen.add("model")
                    except LhvConstructionError as exc:
                        seen.add(next((rule for rule in rules if rule in str(exc)), "born"))
        assert seen == {"model", *rules}


# ------------------------------------------------------- the one-pass scan


def trine(theta):
    """A three-outcome qubit POVM: (2/3)|v_k><v_k| for the real unit vectors
    at angles theta + 2 pi k / 3."""
    angles = theta + 2 * np.pi * np.arange(3) / 3
    v = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return Povm(2, [2 / 3 * np.outer(x, x).astype(complex) for x in v])


def mixed_pairs():
    """A custom family of 1-, 2- and 3-effect qubit POVMs on either side."""
    return [
        ("identity|z", identity_povm(2), projective_povm("z")),
        ("trine|x", trine(0.3), projective_povm("x")),
        ("z|trine", projective_povm("z"), trine(1.1)),
        ("trine|trine", trine(0.2), trine(0.7)),
        ("identity|identity", identity_povm(2), identity_povm(2)),
        ("magic|trine", magic_povm(0.6), trine(-0.4)),
        ("trine|identity", trine(2.0), identity_povm(2)),
        ("y|x", projective_povm("y"), projective_povm("x")),
    ]


def magic_grid(budget):
    """The magic family as its scan labels it, with freshly built POVMs."""
    povms = [magic_povm(k / budget) for k in range(1, budget + 1)]
    return [(f"magic:{k / budget:.8f}", m, m.transpose()) for k, m in enumerate(povms, 1)]


SCAN_FAMILIES = {
    "pauli": ("pauli", 16, lhv.pauli_pairs),
    **{f"magic-{b}": ("magic", b, lambda b=b: magic_grid(b)) for b in (1, 4, 5, 16)},
    "custom": (None, 0, mixed_pairs),
}


def oracle_scan_rows(dec, pairs):
    """The scan as a loop over pairs, each built by the per-term loop oracle."""
    rows = []
    for label, pa, pb in pairs:
        try:
            rows.append((label, True, oracle_build_lhv(dec, pa, pb)[-1], ""))
        except LhvConstructionError as exc:
            rows.append((label, False, None, str(exc)))
    return rows


def per_pair_rows(dec, pairs):
    """The scan as a loop of build_lhv calls, one per pair."""
    rows = []
    for label, pa, pb in pairs:
        try:
            rows.append(lhv.ScanRecord(label, True, build_lhv(dec, pa, pb).born_deviation))
        except LhvConstructionError as exc:
            rows.append(lhv.ScanRecord(label, False, None, str(exc)))
    return tuple(rows)


def scan(dec, family):
    name, budget, pairs = SCAN_FAMILIES[family]
    if name is None:  # a custom iterable, read once
        return povm_scan(dec, family=(pair for pair in pairs())), pairs()
    return povm_scan(dec, family=name, budget=budget), pairs()


# A term dropped as traceless and silent (its responses are within ATOL of 0)
# whose other side is large still carries correlation past BORN_TOL.
SCAN_DECOMPOSITIONS = {
    **ORACLE_DECOMPOSITIONS,
    "born-mismatch": [
        SeparableDecomposition(np.ones(2), (PAULI_I / 2, 0.8 * ATOL * PAULI_Z), (PAULI_I / 2, 1e4 * PAULI_I))
    ],
}


def check_verification(dec, report):
    """A magic scan's ``threshold_deviation`` is the Born deviation of
    ``build_lhv`` at a threshold above 0: its model's, or the one its error
    names.  There is none at a threshold of 0 or on other families."""
    if not report.threshold:
        assert report.threshold_deviation is None
        return
    povm = magic_povm(report.threshold)
    try:
        assert report.threshold_deviation == build_lhv(dec, povm, povm.transpose()).born_deviation
    except LhvConstructionError as exc:
        assert f"deviates from Born probabilities by {report.threshold_deviation:.3e};" in str(exc)


def failure_kind(detail):
    kinds = ("complex", "traceless", "negative", "nonpositive trace", "not normalised", "Born")
    return next(kind for kind in kinds if kind in detail)


class TestOnePassScan:
    """Every row of the one-pass scan is what a loop over the pairs gives."""

    @pytest.mark.parametrize("family", SCAN_FAMILIES)
    def test_rows_match_the_per_pair_oracles(self, family):
        for decs in SCAN_DECOMPOSITIONS.values():
            for dec in decs:
                report, pairs = scan(dec, family)
                assert report.rows == per_pair_rows(dec, pairs)
                for row, (label, success, deviation, detail) in zip(report.rows, oracle_scan_rows(dec, pairs)):
                    assert (row.label, row.success, row.detail) == (label, success, detail)
                    if success:
                        assert abs(row.born_deviation - deviation) <= 1e-15, label
                if family.startswith("magic"):
                    assert report.threshold == oracle_magic_threshold(dec)
                check_verification(dec, report)

    def test_every_failure_branch_reaches_a_scan_row(self):
        seen = set()
        for decs in SCAN_DECOMPOSITIONS.values():
            for dec in decs:
                for family in ("pauli", "custom"):
                    seen.update(failure_kind(r.detail) for r in scan(dec, family)[0].rows if not r.success)
        assert seen == {"complex", "traceless", "negative", "nonpositive trace", "not normalised", "Born"}

    def test_magic_verification_reports_the_deviation(self):
        """A threshold whose model misses the Born probabilities is reported
        with that model's deviation; the scan does not raise."""
        dec = SCAN_DECOMPOSITIONS["born-mismatch"][0]
        assert oracle_magic_threshold(dec) == 1.0
        report = povm_scan(dec, family="magic", budget=4)
        assert report.threshold == 1.0
        assert report.threshold_deviation > lhv.BORN_TOL
        check_verification(dec, report)
        assert report.rows == per_pair_rows(dec, magic_grid(4))

    def test_magic_verification_of_a_passing_threshold(self):
        report = povm_scan(phase_point_decomposition(), family="magic")
        assert abs(report.threshold - (np.sqrt(3) - 1)) <= 1e-15
        assert report.threshold_deviation <= lhv.BORN_TOL
        check_verification(phase_point_decomposition(), report)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_wrong_dimension_in_a_custom_family(self, side):
        dec, z, qutrit = phase_point_decomposition(), projective_povm("z"), identity_povm(3)
        bad = (z, qutrit) if side == "B" else (qutrit, z)
        message = "^POVM dimension 3 does not match operator dimension 2$"
        with pytest.raises(ValueError, match=message) as info:
            povm_scan(dec, family=[("z|z", z, z), ("bad", *bad), ("trine|z", trine(0.1), z)])
        assert not isinstance(info.value, LhvConstructionError)
        with pytest.raises(ValueError, match=message):
            build_lhv(dec, *bad)

    def test_empty_custom_family(self):
        report = povm_scan(phase_point_decomposition(), family=[])
        assert report == lhv.ScanReport("custom", ())


def random_povm(rng, outcomes):
    """Random PSD effects G_k normalised to S^(-1/2) G_k S^(-1/2), S = sum G_k."""
    g = rng.normal(size=(outcomes, 2, 2)) + 1j * rng.normal(size=(outcomes, 2, 2))
    g = g @ g.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(g.sum(axis=0))
    root = (v / np.sqrt(w)) @ v.conj().T
    effects = root @ g @ root
    return Povm(2, 0.5 * (effects + effects.conj().transpose(0, 2, 1)))


TERM_KINDS = ("state", "bloch", "traceless", "complex")


def random_term(rng, kind):
    """A qubit operator: a density matrix, a unit-trace Hermitian one whose
    Bloch vector may leave the ball, a traceless Hermitian one, or a complex one."""
    r = rng.normal(size=3)
    pauli = np.array([PAULI_X, PAULI_Y, PAULI_Z])
    if kind == "state":
        r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
    elif kind == "bloch":
        r *= rng.uniform(0.5, 2.0) / np.linalg.norm(r)
    op = np.tensordot(r, pauli, axes=1) / 2
    if kind == "traceless":
        return op
    op = op + PAULI_I / 2
    return op + 0.3j * PAULI_Z if kind == "complex" else op


@st.composite
def decompositions_and_families(draw):
    # Only states, with out-of-ball Bloch operators, with traceless ones, or any kind.
    pool = draw(st.sampled_from([TERM_KINDS[:1], TERM_KINDS[:2], TERM_KINDS[::2], TERM_KINDS]))
    kinds = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=1, max_size=5))
    # 1 to 4 outcomes: stacked products of other shapes (a 1-effect POVM padded to 2, a 2-effect one to 4)
    # would round differently from a pair's own pass.
    counts = st.sampled_from((1, 2, 3, 4))
    outcomes = draw(st.lists(st.tuples(counts, counts), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(0.2, 1.0, len(kinds))
    if draw(st.sampled_from((True, True, True, False))):
        p /= p.sum()  # a normalised mixture of unit-trace terms
    A, B = (tuple(random_term(rng, kind[side]) for kind in kinds) for side in (0, 1))
    dec = SeparableDecomposition(p, A, B)
    pairs = [(f"pair-{i}", random_povm(rng, na), random_povm(rng, nb)) for i, (na, nb) in enumerate(outcomes)]
    return dec, pairs


class TestScanProperty:
    @settings(max_examples=60, deadline=None)
    @given(decompositions_and_families())
    def test_scan_rows_are_per_pair_build_lhv(self, case):
        dec, pairs = case
        assert povm_scan(dec, family=pairs).rows == per_pair_rows(dec, pairs)
