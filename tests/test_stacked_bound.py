"""The stacked deletion bound against the per-deletion QR it replaced.

``deletion_minimality`` takes one stacked QR of all of a side's deleted
generator matrices.  The loop it replaced, one ``np.linalg.qr`` per deleted
generator, is kept here as the oracle, and every record must match it bit for
bit: the same residual floats, feasibility and deciding path, on Hermitian and
complex generator sets, dependent sets (n > d^2), repeated generators,
one-generator and empty sides, padded spaces whose deletions run the fit, and
transported maximally entangled states up to d = 8.
"""

import numpy as np
import pytest

from minsep.bases import PAULI_I, phase_point_operators
from minsep.core import realign
from minsep.feasibility import (
    DeletionRecord,
    MinimalityReport,
    StateSpace,
    deletion_minimality,
    separable_feasible,
)
from minsep.schmidt import operator_schmidt
from minsep.states import bell_state, max_entangled, random_density
from minsep.tolerances import FEAS_TOL, INFEAS_THRESHOLD
from minsep.transport import (
    build_maps,
    build_w_basis,
    check_condition_a,
    construct_alignment,
    transported_decomposition,
)

THRESHOLDS = [0.0, 1e-20, INFEAS_THRESHOLD, 0.3]


def vecs(space):
    return np.asarray(space.generators).reshape(len(space), space.dim**2).T


def oracle_deletion_minimality(rho, va, vb, threshold=INFEAS_THRESHOLD):
    """``deletion_minimality`` with one QR per deleted generator."""
    realigned = realign(rho.rho, rho.dA, rho.dB)
    records = []
    for side, space, other, target in (("A", va, vb, realigned), ("B", vb, va, realigned.T)):
        g = vecs(space)
        q_other = np.linalg.qr(vecs(other))[0]
        fixed = target @ q_other.conj()
        for k in range(len(space)):
            q = np.linalg.qr(np.delete(g, k, axis=1))[0]
            bound = float(np.linalg.norm(target - q @ (q.conj().T @ fixed) @ q_other.T))
            if bound >= threshold and bound > FEAS_TOL:
                records.append(DeletionRecord(side, k, bound, False, "ls_bound"))
                continue
            pair = (space.without(k), other) if side == "A" else (other, space.without(k))
            result = separable_feasible(rho, *pair)
            records.append(DeletionRecord(side, k, result.residual, result.feasible, "nnls"))
    passed = all(r.residual >= threshold and not r.feasible for r in records)
    return MinimalityReport(tuple(records), passed, threshold)


def assert_bit_identical(rho, va, vb, threshold=INFEAS_THRESHOLD):
    report = deletion_minimality(rho, va, vb, threshold)
    oracle = oracle_deletion_minimality(rho, va, vb, threshold)
    assert len(report.records) == len(va) + len(vb)
    for record, expected in zip(report.records, oracle.records, strict=True):
        assert (record.side, record.index, record.feasible, record.decided_by) == (
            expected.side, expected.index, expected.feasible, expected.decided_by,
        )
        assert record.residual.hex() == expected.residual.hex(), record
    assert report.passed == oracle.passed
    return report


def random_generators(rng, d, n, hermitian):
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    if hermitian:
        g = g + np.conj(np.swapaxes(g, 1, 2))
    return tuple(g)


def transported_max_entangled(d):
    st = max_entangled(d)
    os_ = operator_schmidt(st)
    maps = build_maps(os_)
    w = build_w_basis(maps, construct_alignment(check_condition_a(os_)))
    return st, transported_decomposition(maps, w)


# (dA, dB, nA, nB): partial spans, full spans, dependent sets (n > d^2),
# and one-generator and empty sides.
GENERATOR_COUNTS = [
    (2, 3, 3, 5),
    (2, 3, 4, 9),
    (2, 3, 6, 12),
    (3, 2, 5, 3),
    (3, 2, 11, 2),
    (3, 2, 9, 4),
    (2, 3, 1, 7),
    (3, 2, 10, 1),
    (2, 3, 1, 1),
    (2, 3, 0, 4),
    (3, 2, 6, 0),
]


class TestStackedBoundIsBitIdentical:
    @pytest.mark.parametrize("mode", ["convex", "conic"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "complex"])
    @pytest.mark.parametrize("dA,dB,nA,nB", GENERATOR_COUNTS)
    def test_random_generator_sets(self, dA, dB, nA, nB, hermitian, mode):
        rng = np.random.default_rng([dA, dB, nA, nB, int(hermitian), mode == "conic"])
        va = StateSpace(dA, random_generators(rng, dA, nA, hermitian), mode)
        vb = StateSpace(dB, random_generators(rng, dB, nB, hermitian), mode)
        rho = random_density(int(rng.integers(1000)), dA, dB)
        for threshold in THRESHOLDS:
            assert_bit_identical(rho, va, vb, threshold)

    @pytest.mark.parametrize("mode", ["convex", "conic"])
    def test_repeated_generator(self, mode):
        rng = np.random.default_rng(7)
        gens = random_generators(rng, 3, 5, True)
        va = StateSpace(3, gens + gens[:2], mode)
        vb = StateSpace(2, random_generators(rng, 2, 3, True), mode)
        for threshold in THRESHOLDS:
            assert_bit_identical(random_density(11, 3, 2), va, vb, threshold)

    def test_one_generator_side_bound_is_the_state_norm(self):
        rho = random_density(5, 2, 3)
        va = StateSpace(2, (np.eye(2) / 2,), "convex")
        vb = StateSpace(3, random_generators(np.random.default_rng(5), 3, 4, True), "convex")
        report = assert_bit_identical(rho, va, vb)
        assert report.records[0].residual == float(np.linalg.norm(realign(rho.rho, 2, 3)))

    @pytest.mark.parametrize("both_sides", [False, True])
    def test_padded_spaces_run_the_fit(self, both_sides):
        # The redundant identity leaves deletions the bound cannot decide.
        ws = phase_point_operators().ops
        va = StateSpace(2, ws + (PAULI_I,), "convex")
        vb = StateSpace(2, tuple(w.T for w in ws) + ((PAULI_I,) if both_sides else ()), "convex")
        for threshold in THRESHOLDS:
            report = assert_bit_identical(bell_state(), va, vb, threshold)
            assert "nnls" in {r.decided_by for r in report.records}

    @pytest.mark.parametrize("mode", ["convex", "conic"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_transported_max_entangled(self, d, mode):
        st, dec = transported_max_entangled(d)
        report = assert_bit_identical(st, StateSpace(d, dec.A, mode), StateSpace(d, dec.B, mode))
        assert report.passed
