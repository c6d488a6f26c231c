"""The least-squares lower bound behind deletion minimality.

Deleting a generator is decided by the unconstrained least-squares residual
of the realigned fit when it clears the threshold, and by the nonnegative fit
otherwise.  These tests check that the bound never exceeds the residual the
nonnegative fit reaches, that verdicts match an all-NNLS reference, and that
each record names the path that decided it.
"""

import json

import numpy as np
import pytest

from minsep import serialize
from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, phase_point_operators
from minsep.cli import main
from minsep.crossnorm import DiagonalScaling
from minsep.decompositions import SeparableDecomposition, hermitian_decomposition, random_orthogonal
from minsep.feasibility import StateSpace, deletion_minimality, separable_feasible
from minsep.schmidt import operator_schmidt
from minsep.states import bell_state, max_entangled, product_state, random_density
from minsep.tolerances import INFEAS_THRESHOLD
from minsep.transport import (
    build_maps,
    build_w_basis,
    check_condition_a,
    construct_alignment,
    transported_decomposition,
)


def nnls_deletions(rho, va, vb):
    """(side, index, residual, feasible) of every deletion, each by its own fit."""
    out = []
    for side, space, other in (("A", va, vb), ("B", vb, va)):
        for k in range(len(space)):
            smaller = space.without(k)
            pair = (smaller, other) if side == "A" else (other, smaller)
            result = separable_feasible(rho, *pair)
            out.append((side, k, result.residual, result.feasible))
    return out


def transported(d):
    st = max_entangled(d)
    os_ = operator_schmidt(st)
    maps = build_maps(os_)
    w = build_w_basis(maps, construct_alignment(check_condition_a(os_)))
    return st, transported_decomposition(maps, w)


def hermitian_equal_norm(seed, dA, dB):
    st = random_density(seed, dA, dB)
    os_ = operator_schmidt(st)
    dec = hermitian_decomposition(os_, DiagonalScaling.identity(os_.D), random_orthogonal(os_.D, seed), 1.0)
    return st, dec


def padded_spaces(both_sides):
    ws = phase_point_operators().ops
    va = StateSpace(2, ws + (PAULI_I,), "convex")
    vb = StateSpace(2, tuple(w.T for w in ws) + ((PAULI_I,) if both_sides else ()), "convex")
    return va, vb


def random_generators(rng, d, n, hermitian):
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    if hermitian:
        g = g + np.conj(np.swapaxes(g, 1, 2))
    return tuple(g)


# (dA, dB, nA, nB): partial spans, full spans, dependent sets (n > d^2).
GENERATOR_COUNTS = [
    (2, 3, 3, 5),
    (2, 3, 4, 9),
    (2, 3, 6, 4),
    (3, 2, 5, 3),
    (3, 2, 11, 2),
    (3, 2, 9, 4),
]


class TestLowerBound:
    @pytest.mark.parametrize("mode", ["convex", "conic"])
    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("dA,dB,nA,nB", GENERATOR_COUNTS)
    def test_bound_below_every_nnls_residual(self, dA, dB, nA, nB, hermitian, mode):
        rng = np.random.default_rng([dA, dB, nA, nB, int(hermitian)])
        va = StateSpace(dA, random_generators(rng, dA, nA, hermitian), mode)
        vb = StateSpace(dB, random_generators(rng, dB, nB, hermitian), mode)
        rho = random_density(int(rng.integers(1000)), dA, dB)
        # threshold 0: every deletion with a bound above FEAS_TOL reports it.
        report = deletion_minimality(rho, va, vb, threshold=0.0)
        bounded = 0
        for record, (side, k, residual, feasible) in zip(report.records, nnls_deletions(rho, va, vb), strict=True):
            assert (record.side, record.index) == (side, k)
            if record.decided_by == "ls_bound":
                bounded += 1
                assert record.residual <= (1 + 1e-12) * residual
                assert not feasible
            else:
                assert record.residual == residual
                assert record.feasible == feasible
        assert bounded > 0

    @pytest.mark.parametrize("mode", ["convex", "conic"])
    def test_repeated_generator_keeps_the_bound_below(self, mode):
        # A repeated column leaves G rank-deficient with n <= d^2; the QR
        # basis then spans extra numerical directions, which can only lower
        # the bound.
        rng = np.random.default_rng(7)
        gens = random_generators(rng, 3, 5, True)
        va = StateSpace(3, gens + gens[:2], mode)
        vb = StateSpace(2, random_generators(rng, 2, 3, True), mode)
        rho = random_density(11, 3, 2)
        report = deletion_minimality(rho, va, vb, threshold=0.0)
        for record, (_, _, residual, _) in zip(report.records, nnls_deletions(rho, va, vb), strict=True):
            assert record.residual <= (1 + 1e-12) * residual


def decompositions_for_verdicts():
    for d in (2, 3):
        yield f"transported-{d}", *transported(d)
    for seed, (dA, dB) in enumerate([(2, 3), (2, 3), (3, 3), (3, 3)]):
        yield f"herm-{dA}x{dB}/{seed}", *hermitian_equal_norm(900 + seed, dA, dB)


class TestMatchingVerdicts:
    @pytest.mark.parametrize("threshold", [1e-20, INFEAS_THRESHOLD, 0.3])
    @pytest.mark.parametrize("mode", ["convex", "conic"])
    def test_verdicts_match_all_nnls_reference(self, mode, threshold):
        for label, st, dec in decompositions_for_verdicts():
            va = StateSpace(st.dA, dec.A, mode)
            vb = StateSpace(st.dB, dec.B, mode)
            report = deletion_minimality(st, va, vb, threshold=threshold)
            reference = nnls_deletions(st, va, vb)
            expected = all(res >= threshold and not feas for _, _, res, feas in reference)
            assert report.passed == expected, label
            for record, (_, _, residual, feasible) in zip(report.records, reference, strict=True):
                assert record.feasible == feasible, (label, record)
                if record.decided_by == "nnls":
                    assert record.residual == residual, (label, record)


class TestDecidedBy:
    def test_bell_pauli_frame_decided_by_bound(self):
        a = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
        b = (PAULI_I, PAULI_X, PAULI_Y.T, PAULI_Z)
        report = deletion_minimality(bell_state(), StateSpace(2, a, "convex"), StateSpace(2, b, "convex"))
        assert report.passed
        assert [r.decided_by for r in report.records] == ["ls_bound"] * 8
        np.testing.assert_allclose([r.residual for r in report.records], 0.5, rtol=1e-12)

    def test_padded_space_deletions_run_the_fit(self):
        va, vb = padded_spaces(both_sides=False)
        report = deletion_minimality(bell_state(), va, vb)
        assert not report.passed
        assert {r.decided_by for r in report.records if r.side == "A"} == {"nnls"}
        va, vb = padded_spaces(both_sides=True)
        report = deletion_minimality(bell_state(), va, vb)
        assert {r.decided_by for r in report.records} == {"nnls"}

    def test_singleton_bound_is_the_state_norm(self):
        rho_a = np.diag([0.7, 0.3]).astype(complex)
        rho_b = np.diag([0.4, 0.6]).astype(complex)
        state = product_state(rho_a, rho_b)
        report = deletion_minimality(
            state, StateSpace(2, (rho_a,), "convex"), StateSpace(2, (rho_b,), "convex")
        )
        assert report.passed
        for record in report.records:
            assert record.decided_by == "ls_bound"
            assert record.residual == pytest.approx(np.linalg.norm(state.rho), rel=1e-15)


class TestLowThreshold:
    """A bound at rounding level clears a tiny threshold but certifies
    nothing: such deletions must run the fit, which finds the redundant
    identity feasible."""

    @pytest.mark.parametrize("both_sides", [False, True])
    def test_padded_space_fails_at_tiny_threshold(self, both_sides):
        va, vb = padded_spaces(both_sides)
        report = deletion_minimality(bell_state(), va, vb, threshold=1e-20)
        assert not report.passed
        assert [r.feasible for r in report.records if r.side == "A"] == [False] * 4 + [True]

    def test_cli_padded_space_exits_2_at_tiny_threshold(self, capsys, tmp_path):
        va, vb = padded_spaces(both_sides=True)
        dec = SeparableDecomposition(np.full(5, 0.2), va.generators, vb.generators)
        path = tmp_path / "dec.json"
        path.write_text(serialize.dumps(serialize.encode_decomposition(dec)))
        code = main(["verify-minimal", "--state", "bell", "--decomposition", str(path), "--threshold", "1e-20"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert not report["result"]["passed"]
        assert {row["decided_by"] for row in report["result"]["deletions"]} == {"nnls"}


class TestAdvertisedScope:
    """Transported maximally entangled states up to d = 8: the realigned
    state is I/d, so every deletion leaves exactly 1/d unexplained."""

    @pytest.mark.parametrize("mode", ["convex", "conic"])
    @pytest.mark.parametrize("d", [2, 4, 5, 6, 8])
    def test_transported_max_entangled_is_minimal(self, d, mode):
        st, dec = transported(d)
        report = deletion_minimality(st, StateSpace(d, dec.A, mode), StateSpace(d, dec.B, mode))
        assert report.passed
        assert len(report.records) == 2 * d * d
        assert min(r.residual for r in report.records) == pytest.approx(1.0 / d, abs=1e-9)
