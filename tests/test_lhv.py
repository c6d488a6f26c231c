"""Local hidden variable models: construction, exactness, POVM scans."""

import numpy as np
import pytest

from conftest import near_max_entangled
from minsep import lhv
from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, phase_point_operators
from minsep.decompositions import SeparableDecomposition
from minsep.lhv import (
    LhvConstructionError,
    born_probability,
    build_lhv,
    generalized_positive,
    lhv_probability,
    povm_scan,
)
from minsep.schmidt import operator_schmidt
from minsep.states import bell_state, identity_povm, magic_povm, projective_povm
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
    def test_at_most_budget_plus_one_build_lhv_calls(self, monkeypatch, budget):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_lhv(*args, **kwargs)

        monkeypatch.setattr(lhv, "build_lhv", counting)
        decs = [phase_point_decomposition(), *transported_qubit_decompositions((0, 106))]
        for dec in decs:
            calls.clear()
            povm_scan(dec, family="magic", budget=budget)
            assert 0 < len(calls) <= budget + 1
