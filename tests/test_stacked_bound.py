"""The deletion bounds against per-deletion oracles.

Convex spaces take their bounds in closed form from one SVD per side.  The
oracle for them factors every deleted generator set on its own: an SVD of
G without column k, cut by the same rule, with the same margin subtracted,
and an explicit projection.  Every record must match it within 1e-12 ||R||,
with the same feasibility and deciding path.  Conic spaces take one stacked
QR of all of a side's deleted generator matrices, and the loop it replaced,
one ``np.linalg.qr`` per deleted generator, is their oracle.  On the complex
path (non-Hermitian inputs, and nearly dependent sides) every conic record
must match it bit for bit.  On the real path (real Hermitian-frame
coordinates) every conic record must keep the feasibility and deciding path
of the oracle run in those coordinates, with each residual within the
products' rounding, and of the oracle run on the complex generator vectors,
with each residual within 1e-12 ||R||.  The sets cover Hermitian and complex
generators, dependent sets (n > d^2), repeated generators, one-generator and
empty sides, padded spaces whose deletions run the fit, and transported
maximally entangled states up to d = 8."""

import numpy as np
import pytest

from minsep.bases import PAULI_I, phase_point_operators
from minsep.core import realign
from minsep.feasibility import (
    DeletionRecord,
    MinimalityReport,
    StateSpace,
    _conic_bounds,
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


def complex_coordinates(rho, va, vb):
    """The generator vectors and the realignment as they are: the complex path."""
    return vecs(va), vecs(vb), realign(rho.rho, rho.dA, rho.dB)


def oracle_deletion_minimality(rho, va, vb, threshold, coordinates, moved_last=False):
    """``deletion_minimality`` with one QR per deleted generator, on G_A, G_B and R
    given as ``coordinates``: of G without column k, or, with ``moved_last``, the
    first n - 1 columns of the QR of G with column k moved last."""
    ga, gb, realigned = coordinates
    records = []
    for side, space, other, g, g_other, target in (
        ("A", va, vb, ga, gb, realigned), ("B", vb, va, gb, ga, realigned.T),
    ):
        q_other = np.linalg.qr(g_other)[0]
        fixed = target @ q_other.conj()
        for k in range(len(space)):
            rest = np.delete(g, k, axis=1)
            if moved_last:
                q = np.linalg.qr(np.concatenate([rest, g[:, [k]]], axis=1))[0][:, : len(space) - 1]
            else:
                q = np.linalg.qr(rest)[0]
            bound = float(np.linalg.norm(target - q @ (q.conj().T @ fixed) @ q_other.T))
            if bound >= threshold and bound > FEAS_TOL:
                records.append(DeletionRecord(side, k, bound, False, "ls_bound"))
                continue
            pair = (space.without(k), other) if side == "A" else (other, space.without(k))
            result = separable_feasible(rho, *pair)
            records.append(DeletionRecord(side, k, result.residual, result.feasible, "nnls"))
    passed = all(r.residual >= threshold and not r.feasible for r in records)
    return MinimalityReport(tuple(records), passed, threshold)


def cut(g):
    """G's left singular vectors kept at s_i > 1e-10 s_0, its largest dropped singular value and s_0."""
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    r = int(np.count_nonzero(s > 1e-10 * s[:1].max(initial=0.0)))
    return u[:, :r], (s[r] if r < len(s) else 0.0), s[:1].max(initial=0.0)


def oracle_svd_deletion_minimality(rho, va, vb, threshold):
    """Convex ``deletion_minimality`` with one SVD per deleted generator: the distance from R to
    the span of the products of G without column k and of the other side, each cut by
    :func:`cut` and projected explicitly, less the margin: each side's largest dropped singular
    value, with generator k deleted, times the other side's largest one."""
    ga, gb, realigned = complex_coordinates(rho, va, vb)
    records = []
    for side, space, other, g, g_other, target in (
        ("A", va, vb, ga, gb, realigned), ("B", vb, va, gb, ga, realigned.T),
    ):
        u_other, drop_other, s0_other = cut(g_other)
        s0 = cut(g)[2]
        for k in range(len(space)):
            u, drop, _ = cut(np.delete(g, k, axis=1))
            fit = u @ (u.conj().T @ target @ u_other.conj()) @ u_other.T
            bound = float(np.linalg.norm(target - fit)) - drop * s0_other - drop_other * s0
            if bound >= threshold and bound > FEAS_TOL:
                records.append(DeletionRecord(side, k, bound, False, "ls_bound"))
                continue
            pair = (space.without(k), other) if side == "A" else (other, space.without(k))
            result = separable_feasible(rho, *pair)
            records.append(DeletionRecord(side, k, result.residual, result.feasible, "nnls"))
    passed = all(r.residual >= threshold and not r.feasible for r in records)
    return MinimalityReport(tuple(records), passed, threshold)


def assert_matches_oracles(rho, va, vb, threshold=INFEAS_THRESHOLD):
    """Convex spaces against the per-deletion SVD oracle, within 1e-12 ||R||.  Conic spaces
    against the moved-last oracle in the program's coordinates and the deletion oracle on the
    complex generator vectors: bit for bit on the complex path.  On the real path, within 4 ulp
    of ||R|| of the first (its rounding may follow the allocator's alignment and the BLAS kernel)
    and within 1e-12 ||R|| of the second.  Feasibility and the deciding path always match."""
    report = deletion_minimality(rho, va, vb, threshold)
    assert len(report.records) == len(va) + len(vb)
    norm = np.linalg.norm(rho.realigned)
    if va.mode == "convex":
        oracles, hex_match = [(oracle_svd_deletion_minimality(rho, va, vb, threshold), 1e-12 * norm)], False
    else:
        coordinates = _conic_bounds(rho, va, vb)[0]
        hex_match = np.iscomplexobj(coordinates[0])
        oracles = [
            (oracle_deletion_minimality(rho, va, vb, threshold, coordinates, moved_last=True), 4 * np.spacing(norm)),
            (oracle_deletion_minimality(rho, va, vb, threshold, complex_coordinates(rho, va, vb)), 1e-12 * norm),
        ]
    for oracle, atol in oracles:
        for record, expected in zip(report.records, oracle.records, strict=True):
            assert (record.side, record.index, record.feasible, record.decided_by) == (
                expected.side, expected.index, expected.feasible, expected.decided_by,
            )
            if hex_match:
                assert record.residual.hex() == expected.residual.hex(), record
            else:
                assert abs(record.residual - expected.residual) <= atol, record
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


def repeated_generator_case(mode):
    """A 3x2 state with 7 Hermitian A generators that span 5 dimensions (two repeated) and 3 B ones."""
    rng = np.random.default_rng(7)
    gens = random_generators(rng, 3, 5, True)
    va = StateSpace(3, gens + gens[:2], mode)
    vb = StateSpace(2, random_generators(rng, 2, 3, True), mode)
    return random_density(11, 3, 2), va, vb


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


class TestDeletionBoundsMatchTheirOracles:
    @pytest.mark.parametrize("mode", ["convex", "conic"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "complex"])
    @pytest.mark.parametrize("dA,dB,nA,nB", GENERATOR_COUNTS)
    def test_random_generator_sets(self, dA, dB, nA, nB, hermitian, mode):
        rng = np.random.default_rng([dA, dB, nA, nB, int(hermitian), mode == "conic"])
        va = StateSpace(dA, random_generators(rng, dA, nA, hermitian), mode)
        vb = StateSpace(dB, random_generators(rng, dB, nB, hermitian), mode)
        rho = random_density(int(rng.integers(1000)), dA, dB)
        for threshold in THRESHOLDS:
            assert_matches_oracles(rho, va, vb, threshold)

    @pytest.mark.parametrize("mode", ["convex", "conic"])
    def test_repeated_generator(self, mode):
        rho, va, vb = repeated_generator_case(mode)
        for threshold in THRESHOLDS:
            report = assert_matches_oracles(rho, va, vb, threshold)
        # A dependent conic side keeps the complex path.  Each bound is at most
        # the residual the fit without that generator reaches.
        if mode == "conic":
            assert np.iscomplexobj(_conic_bounds(rho, va, vb)[0][0])
        for record in report.records:
            fit = separable_feasible(rho, va.without(record.index), vb) if record.side == "A" else (
                separable_feasible(rho, va, vb.without(record.index)))
            assert record.residual <= fit.residual + 1e-12

    def test_one_generator_side_bound_is_the_state_norm(self):
        rho = random_density(5, 2, 3)
        va = StateSpace(2, (np.eye(2) / 2,), "convex")
        vb = StateSpace(3, random_generators(np.random.default_rng(5), 3, 4, True), "convex")
        report = assert_matches_oracles(rho, va, vb)
        # ||R||, up to the rounding of its sum of squares.
        assert report.records[0].residual == pytest.approx(np.linalg.norm(realign(rho.rho, 2, 3)), rel=1e-15)

    @pytest.mark.parametrize("both_sides", [False, True])
    def test_padded_spaces_run_the_fit(self, both_sides):
        # The redundant identity leaves deletions the bound cannot decide.
        ws = phase_point_operators().ops
        va = StateSpace(2, ws + (PAULI_I,), "convex")
        vb = StateSpace(2, tuple(w.T for w in ws) + ((PAULI_I,) if both_sides else ()), "convex")
        for threshold in THRESHOLDS:
            report = assert_matches_oracles(bell_state(), va, vb, threshold)
            assert "nnls" in {r.decided_by for r in report.records}

    @pytest.mark.parametrize("mode", ["convex", "conic"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_transported_max_entangled(self, d, mode):
        st, dec = transported_max_entangled(d)
        report = assert_matches_oracles(st, StateSpace(d, dec.A, mode), StateSpace(d, dec.B, mode))
        assert report.passed
