"""The stacked construction paths against the per-term code they replaced.

The costs, the equal-norm check, the magic scan and the Hermiticity checks
once looped over terms in Python.  The loops are kept here as oracles and
run over seeded decompositions with d = 2..4, dA != dB included.  A second
group of tests counts the checks and constructions that the stacked paths
must not repeat.  The last groups pin the family format: every family is a
``core.Family`` whose ``np.asarray`` is its one read-only (N, d, d) array.
"""

import copy
import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest

from conftest import apply_map, frob_norm, near_max_entangled, random_mixed_decomposition
from test_lhv import oracle_magic_threshold  # the closed form from one table per side, written out
import minsep
from minsep import bases, core, crossnorm, decompositions, feasibility, lhv, schmidt, serialize, states, tolerances, transport
from minsep.bases import OperatorBasis, hermitian_basis, phase_point_operators
from minsep.core import Family
from minsep.crossnorm import DiagonalScaling, decomposition_cost
from minsep.decompositions import (
    DecompositionMeta,
    SeparableDecomposition,
    cross_norm_decomposition,
    equal_norm_check,
    equal_norm_decomposition,
    hermitian_decomposition,
    normalized_form,
    random_orthogonal,
    random_unitary,
)
from minsep.feasibility import StateSpace, quantum_augmented_feasible, weights_feasible
from minsep.lhv import LhvConstructionError, LhvModel, ScanRecord, build_lhv, povm_scan
from minsep.schmidt import OperatorSchmidt, operator_schmidt
from minsep.states import Povm, bell_state, magic_povm, random_density
from minsep.tolerances import ATOL
from minsep.transport import (
    ConditionBReport,
    build_maps,
    build_w_basis,
    check_condition_a,
    construct_alignment,
    minimal_quantum_spaces,
    transported_cost,
    transported_decomposition,
)

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)]
COST_RTOL = 1e-15


# ---------------------------------------------------------------- oracles


def oracle_transported_cost(dec, maps):
    """The per-term form: one inverse-map application and one frob_norm per side and term."""
    terms = zip(dec.p, dec.A, dec.B)
    return float(sum(pk * frob_norm(apply_map(maps.inv_a, a)) * frob_norm(apply_map(maps.inv_b, b)) for pk, a, b in terms))


def oracle_decomposition_cost(dec, scaling):
    total = 0.0
    for pk, a, b in zip(dec.p, dec.a_coeff, dec.b_coeff):
        total += pk * float(np.linalg.norm(scaling.r * a)) * float(np.linalg.norm(b / scaling.r))
    return float(total)


def oracle_equal_norm_weights(dec, scaling):
    w_a = np.array([np.linalg.norm(scaling.r * a) ** 2 for a in dec.a_coeff])
    w_b = np.array([np.linalg.norm(b / scaling.r) ** 2 for b in dec.b_coeff])
    return w_a, w_b


def oracle_magic_rows(dec, budget):
    """One freshly built magic POVM and transpose per row."""
    rows = []
    for i in range(budget):
        c = (i + 1) / budget
        povm = magic_povm(c)
        label = f"magic:{c:.8f}"
        try:
            rows.append(ScanRecord(label, True, build_lhv(dec, povm, povm.transpose()).born_deviation))
        except LhvConstructionError as exc:
            rows.append(ScanRecord(label, False, None, str(exc)))
    return tuple(rows)


def is_hermitian(m):
    """The per-matrix check the stacked ``core.hermitian_mask`` replaced."""
    return bool(np.max(np.abs(m - np.conj(m).T)) <= ATOL)


def oracle_hermitian_terms(A, B):
    return tuple(is_hermitian(a) and is_hermitian(b) for a, b in zip(A, B))


# ----------------------------------------------------------------- inputs


def seeded_decompositions(dA, dB, seed):
    """Cross-norm (wide isometry), equal-norm, Hermitian equal-norm and a
    non-optimal decomposition of one random density, with their scaling."""
    os = operator_schmidt(random_density(600 + seed, dA, dB))
    rng = np.random.default_rng(seed)
    D = os.D
    scaling = DiagonalScaling(np.exp(rng.normal(0.0, 0.4, D)))
    n = D + 2
    iso = random_unitary(n, seed)[:D]
    decs = [
        cross_norm_decomposition(os, scaling, iso, rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 2.0, n)),
        equal_norm_decomposition(os, scaling, random_unitary(D, seed), float(rng.uniform(0.5, 2.0))),
        hermitian_decomposition(os, scaling, random_orthogonal(D, seed), float(rng.uniform(0.5, 2.0))),
        random_mixed_decomposition(os, seed),
    ]
    return os, scaling, decs


def transported_parts(seed, d, t_seed=None):
    os = operator_schmidt(near_max_entangled(seed, d))
    maps = build_maps(os)
    w = build_w_basis(maps, construct_alignment(check_condition_a(os), seed=t_seed))
    return os, maps, transported_decomposition(maps, w)


def qubit_decompositions():
    """Phase-point, transported (thresholds 0 and strictly inside (0, 1)),
    cross-norm and Hermitian qubit decompositions."""
    ws = phase_point_operators().ops
    yield SeparableDecomposition(np.full(4, 0.25), ws, tuple(w.T for w in ws))
    for seed in (0, 3, 38, 41, 42, 106):
        for t_seed in (None, seed):
            yield transported_parts(seed, 2, t_seed)[2]
    for seed in range(3):
        yield from seeded_decompositions(2, 2, seed)[2][:3]


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestStackedMatchesPerTerm:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_transported_cost(self, d):
        for seed in range(3):
            os, maps, dec = transported_parts(seed, d, t_seed=seed if seed else None)
            others = seeded_decompositions(d, d, seed)[2]
            for other in (dec, *others):
                # The maps of one state measure decompositions of another just as well.
                expected = oracle_transported_cost(other, maps)
                assert abs(transported_cost(other, maps) - expected) <= COST_RTOL * expected
            assert abs(transported_cost(dec, maps) - d) <= 1e-13

    @pytest.mark.parametrize("dims", DIMS)
    def test_decomposition_cost(self, dims):
        for seed in range(2):
            os, scaling, decs = seeded_decompositions(*dims, seed)
            for dec in decs:
                expected = oracle_decomposition_cost(dec, scaling)
                assert abs(decomposition_cost(dec, scaling) - expected) <= COST_RTOL * expected

    @pytest.mark.parametrize("dims", DIMS)
    def test_equal_norm_check(self, dims):
        for seed in range(2):
            os, scaling, decs = seeded_decompositions(*dims, seed)
            for dec in decs:
                report = equal_norm_check(dec, scaling)
                w_a, w_b = oracle_equal_norm_weights(dec, scaling)
                for got, want in ((report.w_a, w_a), (report.w_b, w_b)):
                    np.testing.assert_allclose(got, want, rtol=COST_RTOL, atol=0)
                    assert got.shape == want.shape
                assert abs(report.max_dev_a - (np.max(w_a) - np.min(w_a))) <= 4 * COST_RTOL * np.max(w_a)
                assert abs(report.max_dev_b - (np.max(w_b) - np.min(w_b))) <= 4 * COST_RTOL * np.max(w_b)
            assert [equal_norm_check(dec, scaling).passed for dec in decs] == [False, True, True, False]

    @pytest.mark.parametrize("budget", [1, 5, 16])
    def test_magic_scan_rows_and_thresholds(self, budget):
        inside = 0
        for dec in qubit_decompositions():
            report = povm_scan(dec, family="magic", budget=budget)
            assert report.rows == oracle_magic_rows(dec, budget)
            threshold = oracle_magic_threshold(dec)
            assert bits(report.threshold) == bits(threshold)
            inside += 0 < threshold < 1
        assert inside >= 3  # thresholds strictly inside (0, 1) are exercised, not only 0 and 1

    @pytest.mark.parametrize("dims", DIMS)
    def test_schmidt_hermitian_flags(self, dims):
        dA, dB = dims
        for seed in range(2):
            os = operator_schmidt(random_density(700 + seed, dA, dB))
            # Rotate one pair in three by opposite phases (the product is kept) and
            # the Y of another by a phase alone: each rotated side stops being Hermitian.
            k = (np.arange(os.D) + seed) % 3
            phase_x, phase_y = np.where(k == 1, np.exp(0.7j), 1.0), np.where(k == 2, np.exp(-0.4j), 1.0)
            X = tuple(ph * x for ph, x in zip(phase_x, os.X))
            Y = tuple(np.conj(px) * py * y for px, py, y in zip(phase_x, phase_y, os.Y))
            rotated = OperatorSchmidt(dA, dB, os.s, X, Y)
            assert rotated.hermitian == oracle_hermitian_terms(X, Y)
            assert OperatorSchmidt(dA, dB, os.s, os.X, os.Y).hermitian == oracle_hermitian_terms(os.X, os.Y)
            assert not all(rotated.hermitian) and any(rotated.hermitian)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_hermitian_mask_of_one_matrix_and_of_a_family(self, d):
        """One (d, d) matrix gives one bool, a family one per member, both as the per-matrix check."""
        rng = np.random.default_rng(d)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        skew = 1j * np.eye(d)  # adds 2 t i I to M - M^dag
        ops = np.stack([h, h + 0.4 * ATOL * skew, h + 4 * ATOL * skew, 1j * h])
        assert core.hermitian_mask(ops).tolist() == [is_hermitian(m) for m in ops] == [True, True, False, False]
        for m in ops:
            assert core.hermitian_mask(m).shape == () and bool(core.hermitian_mask(m)) == is_hermitian(m)

    @pytest.mark.parametrize("side, bad, c", [("A", (2, 3), 0.25), ("B", (1,), 4.0), ("A", (1, 3), 0.25)])
    def test_non_hermitian_term_named_by_first_index(self, side, bad, c):
        """Frames whose anti-Hermitian part is just under ATOL count as Hermitian; the
        construction scales them past ATOL (A^k by sqrt(lambda / c), B^k by sqrt(lambda c)),
        and the stacked check names the first failing term, as the per-term loop did."""
        os = operator_schmidt(random_density(11, 2, 3))
        X, Y = list(os.X), list(os.Y)
        frame = X if side == "A" else Y
        sym = np.zeros_like(frame[0])
        sym[0, 1] = sym[1, 0] = 1.0  # sigma_x in the first two levels
        for k in bad:
            frame[k] = frame[k] + 0.45 * ATOL * 1j * sym  # M - M^dag has largest entry 0.9 ATOL
        nearly = OperatorSchmidt(2, 3, os.s, X, Y)
        assert nearly.hermitisable
        scaling = DiagonalScaling.identity(os.D)
        for o in (np.eye(os.D), np.eye(os.D)[::-1]):
            # equal_norm_decomposition does not check Hermiticity: the oracle's input.
            plain = equal_norm_decomposition(nearly, scaling, o, c)
            first = oracle_hermitian_terms(plain.A, plain.B).index(False)
            with pytest.raises(ValueError, match=rf"^term {first} failed to come out Hermitian$"):
                hermitian_decomposition(nearly, scaling, o, c)

    @pytest.mark.parametrize("name", ["decomposition_cost", "equal_norm_check"])
    def test_scaling_of_the_wrong_size_still_raises(self, name):
        dec = normalized_form(operator_schmidt(bell_state()))  # 4 terms, coefficient vectors of size 4
        small = DiagonalScaling(np.ones(1))
        fn = decomposition_cost if name == "decomposition_cost" else equal_norm_check
        with pytest.raises(ValueError) as info:
            fn(dec, small)
        assert str(info.value) == "vector has shape (4,), expected (1,)"


# ------------------------------------------------------------ check once


def count_calls(monkeypatch, owners, name):
    """Replace ``name`` on every owner by one wrapper that records each call."""
    calls = []
    original = getattr(owners[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


class TestCheckOnce:
    def test_second_magic_scan_builds_no_povm(self, monkeypatch):
        built = count_calls(monkeypatch, [Povm], "__post_init__")
        lhv._magic_pairs.cache_clear()
        zero = transported_parts(0, 2)[2]  # c* = 0
        inside = next(dec for dec in qubit_decompositions())  # phase point, c* = sqrt(3) - 1
        budget = 12
        povm_scan(zero, family="magic", budget=budget)
        assert len(built) == 2 * budget  # the grid, built once
        for dec, per_scan in ((zero, 0), (inside, 2)):
            built.clear()
            threshold = povm_scan(dec, family="magic", budget=budget).threshold
            assert (threshold > 0) == (per_scan > 0) and threshold < 1
            # Only the Born verification at the decomposition's own c* builds a pair.
            assert len(built) == per_scan

    @pytest.mark.parametrize("sizes", [(9, 9), (4, 1), (3, 0)], ids=["transported", "one-generator", "empty"])
    def test_a_verdict_factors_each_side_once(self, monkeypatch, sizes):
        """One stacked QR per side gives every deletion basis and the other
        side's span; each bound is taken without np.linalg.norm."""
        d = 3
        st, dec = near_max_entangled(0, d), transported_parts(0, d)[2]
        va = StateSpace(d, dec.A[: sizes[0]], "conic")
        vb = StateSpace(d, dec.B[: sizes[1]], "conic")
        qr = count_calls(monkeypatch, [np.linalg], "qr")
        norm = count_calls(monkeypatch, [np.linalg], "norm")
        report = feasibility.deletion_minimality(st, va, vb)
        assert {r.decided_by for r in report.records} == {"ls_bound"}
        assert len(report.records) == sum(sizes)
        assert len(qr) == 2 and norm == []

    @pytest.mark.parametrize("builder", ["cross-norm", "equal-norm", "hermitian"])
    def test_builders_check_once(self, monkeypatch, builder):
        os = operator_schmidt(random_density(5, 2, 3))
        scaling = DiagonalScaling(np.linspace(0.8, 1.2, os.D))
        # core.family under every name a minsep module imported it as.
        owners = [m for key, m in sys.modules.items() if key.startswith("minsep")]
        owners = [m for m in owners if getattr(m, "family", None) is core.family]
        family = count_calls(monkeypatch, owners, "family")
        unitary = count_calls(monkeypatch, [decompositions], "is_unitary")
        isometry = count_calls(monkeypatch, [decompositions], "is_row_isometry")
        sums = count_calls(monkeypatch, [decompositions], "realigned_sum")
        if builder == "cross-norm":
            n = os.D + 1
            cross_norm_decomposition(os, scaling, random_unitary(n, 2)[: os.D], np.ones(n), np.ones(n))
        elif builder == "equal-norm":
            equal_norm_decomposition(os, scaling, random_unitary(os.D, 2), 1.5)
        else:
            hermitian_decomposition(os, scaling, random_orthogonal(os.D, 2), 1.5)
        assert len(family) == 2  # the A and B families of the one SeparableDecomposition
        assert len(unitary) + len(isometry) == 1
        assert len(sums) == 1  # the decomposition's products; the Schmidt target is os.realigned

    @pytest.mark.parametrize("builder", ["schmidt", "cross-norm", "equal-norm", "hermitian", "transported"])
    def test_non_finite_member_fails_the_residual_gate(self, monkeypatch, builder):
        """The families a construction computes and wraps without a second
        finiteness check: a NaN in one still raises, at the residual gate."""
        def poisoned(fn):
            def wrapper(*args):
                out = fn(*args)
                parts = list(out) if isinstance(out, tuple) else [out]
                k = next(i for i, x in enumerate(parts) if np.ndim(x) == 3)
                frames = np.array(parts[k])
                frames[-1, 0, 0] = np.nan
                parts[k] = Family(frames) if isinstance(out, tuple) else frames
                return tuple(parts) if isinstance(out, tuple) else parts[0]
            return wrapper

        os, maps, _ = transported_parts(0, 2)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        scaling, eye = DiagonalScaling.identity(4), np.eye(4)
        build = {
            "schmidt": lambda: operator_schmidt(bell_state()),
            "cross-norm": lambda: cross_norm_decomposition(os, scaling, eye, np.ones(4), 1.0),
            "equal-norm": lambda: equal_norm_decomposition(os, scaling, eye, 1.0),
            "hermitian": lambda: hermitian_decomposition(os, scaling, eye, 1.0),
            "transported": lambda: transported_decomposition(maps, w),
        }[builder]
        message = {"schmidt": "Schmidt reconstruction residual nan too large"}.get(
            builder, "decomposition residual nan exceeds 1.0e-09")
        if builder == "schmidt":
            monkeypatch.setattr(schmidt, "_schmidt_hermitian", poisoned(schmidt._schmidt_hermitian))
        else:  # every decomposition is assembled, and gated, in one place
            monkeypatch.setattr(decompositions, "combine", poisoned(core.combine))
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_minimal_quantum_spaces_draws_no_samples(self, monkeypatch):
        """Condition B is spectral: neither it nor the spaces it guards draw a random number."""
        os, maps, dec = transported_parts(4, 3)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        seeded = count_calls(monkeypatch, [np.random], "default_rng")
        legacy = np.random.get_state()[1].copy()
        for mode in ("convex", "conic"):
            va, vb = minimal_quantum_spaces(maps, w, mode)
            assert len(va) == len(vb) == 9
        report = transport.check_condition_b(maps)
        assert report.passed and not report.marginal
        assert seeded == [] and np.array_equal(np.random.get_state()[1], legacy)
        assert not hasattr(transport, "haar_projectors")


# ------------------------------------------------------------ family format


def family_attributes(dA, dB, seed):
    """Every family attribute the constructions produce, by owner and name."""
    os, scaling, decs = seeded_decompositions(dA, dB, seed)
    dec = decs[0]
    yield "OperatorSchmidt.X", os.X, dA
    yield "OperatorSchmidt.Y", os.Y, dB
    yield "SeparableDecomposition.A", dec.A, dA
    yield "SeparableDecomposition.B", dec.B, dB
    yield "StateSpace.generators", StateSpace(dA, dec.A, "conic").generators, dA
    yield "OperatorBasis.ops", hermitian_basis(dB).ops, dB
    yield "Povm.effects", magic_povm(0.5).effects, 2


class TestFamilyArray:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_attributes_share_one_read_only_array(self, dims):
        for owner, fam, d in family_attributes(*dims, seed=1):
            arr = np.asarray(fam)
            assert isinstance(fam, Family), owner
            assert arr is np.asarray(fam) is np.asarray(fam, dtype=complex), owner  # no copy
            assert arr.shape == (len(fam), d, d) and arr.dtype == complex, owner
            assert not arr.flags.writeable, owner
            assert all(np.shares_memory(arr, member) for member in fam), owner
            np.testing.assert_array_equal(arr, np.stack(list(fam)))

    def test_coefficients_are_read_only_c_ordered_rows(self):
        """Every builder's a_coeff and b_coeff are one (N, D) array each, which the norms read without a copy."""
        os, _, decs = seeded_decompositions(2, 3, seed=2)
        for dec, D in [*((dec, os.D) for dec in decs[:3]), (transported_parts(2, 3)[2], 9)]:
            for coeff in (dec.a_coeff, dec.b_coeff):
                assert isinstance(coeff, np.ndarray) and coeff.shape == (dec.terms, D)
                assert coeff.flags.c_contiguous and not coeff.flags.writeable
                assert np.asarray(coeff, dtype=complex) is coeff  # as crossnorm._scaled_norms reads it

    def test_records_holding_arrays_compare_by_identity(self):
        """==, in and hash() work on every record that holds an array; a copy is another record."""
        state = bell_state()
        os = operator_schmidt(state)
        dec, scaling, cond_a = normalized_form(os), DiagonalScaling.identity(os.D), check_condition_a(os)
        va, vb = StateSpace(2, dec.A), StateSpace(2, dec.B)
        records = [
            state, magic_povm(0.5), os, dec, dec.meta, scaling, hermitian_basis(2), va,
            weights_feasible(state, va, vb, np.diag(dec.p)), LhvModel(np.ones(1), np.ones((1, 1)), np.ones((1, 1))),
            build_maps(os), cond_a, construct_alignment(cond_a), equal_norm_check(dec, scaling),
        ]
        assert len({type(r) for r in records}) == 14
        for r in records:
            twin = copy.copy(r)
            assert r == r and r != twin and r in [twin, r] and r in {r} and hash(r) == hash(r), type(r).__name__

    def test_array_copy_is_writable_and_dtype_is_honoured(self):
        fam = operator_schmidt(random_density(3, 2, 3)).X
        copy = np.array(fam)
        assert copy.flags.writeable and not np.shares_memory(copy, np.asarray(fam))
        copy[0, 0, 0] = 7.0
        assert fam[0][0, 0] != 7.0
        assert np.asarray(fam, dtype=np.complex64).dtype == np.complex64
        with pytest.raises(ValueError):
            np.array(fam, dtype=np.complex64, copy=False)

    @pytest.mark.parametrize("dims", DIMS)
    def test_concatenation_joins_the_members(self, dims):
        for dec in seeded_decompositions(*dims, seed=0)[2]:
            both = dec.A + dec.B
            assert len(both) == 2 * dec.terms
            assert [m.shape for m in both] == [(dims[0],) * 2] * dec.terms + [(dims[1],) * 2] * dec.terms
            assert all(x is y for x, y in zip(both, (*dec.A, *dec.B)))

    def test_empty_family_keeps_its_dimension(self):
        assert np.shape(StateSpace(3, ()).generators) == (0, 3, 3)
        assert np.shape(OperatorBasis(3, ()).ops) == (0, 3, 3)
        assert np.shape(core.family((), "ops", 2)) == (0, 2, 2)

    def test_checked_family_passes_through(self):
        dec = seeded_decompositions(2, 3, 0)[2][0]
        assert core.family(dec.A, "A", 2) is dec.A
        assert core.family(dec.B, "B") is dec.B
        rebuilt = SeparableDecomposition(dec.p, dec.A, dec.B)
        assert rebuilt.A is dec.A and rebuilt.B is dec.B
        with pytest.raises(ValueError) as info:
            core.family(dec.A, "X", 3)
        assert str(info.value) == "X[0] has shape (2, 2), expected (3, 3)"
        with pytest.raises(ValueError) as info:
            StateSpace(3, dec.A)
        assert str(info.value) == "generators[0] has shape (2, 2), expected (3, 3)"

    def test_without_and_augmented_generator_counts(self):
        st, dec = near_max_entangled(0, 3), transported_parts(0, 3)[2]
        va, vb = StateSpace(3, dec.A), StateSpace(3, dec.B)
        for k in range(len(va)):
            smaller = va.without(k).generators
            assert isinstance(smaller, Family) and np.shape(smaller) == (len(va) - 1, 3, 3)
            np.testing.assert_array_equal(smaller, np.delete(np.asarray(va.generators), k, axis=0))
        assert np.shape(StateSpace(3, dec.A[:1]).without(0).generators) == (0, 3, 3)
        qa = StateSpace(3, dec.A[:2], include_quantum=True)
        assert quantum_augmented_feasible(st, qa, vb, 4, seed=0).weights.shape == (2 + 3 + 4, len(vb))
        qb = StateSpace(3, (), include_quantum=True)
        assert quantum_augmented_feasible(st, va, qb, 2, seed=0).weights.shape == (len(va), 3 + 2)

    def test_stack_is_gone(self):
        assert not hasattr(core, "stack")

    @pytest.mark.parametrize(
        "owner, name, removed",
        [
            pytest.param(*case, id=case[1])
            for case in [
                (decompositions, "is_row_isometry", {"tol"}),
                (decompositions, "is_unitary", {"tol"}),
                (core, "hermitian_mask", {"tol"}),
                (transport, "check_condition_a", {"tol"}),
                (decompositions, "equal_norm_check", {"tol"}),
                (transport, "check_condition_b", {"tol", "sample_count", "seed"}),
                (crossnorm, "cross_norm_value", {"scaling"}),
                (serialize, "decode_state", {"check_psd"}),
                (bases, "validate_basis", None),
                (core, "check_svd", None),
                (core, "svd_residual", None),
                (core, "is_hermitian", None),
                (tolerances, "SVD_RTOL", None),
                (schmidt, "operator_schmidt", {"dims"}),
                (transport, "build_maps", {"basis"}),
                (crossnorm, "lambda_norm", {"basis"}),
                (states, "BipartiteState", {"check_psd"}),
                (core, "svd", None),
                (bases, "pauli_basis", None),
                (bases, "heisenberg_weyl_basis", None),
                (schmidt, "_schmidt_general", None),
                (schmidt, "_phase_fix", None),
                (schmidt, "OperatorSchmidt", {"hermitian"}),
                (decompositions, "attach_coefficients", None),
                (crossnorm, "operator_coefficients", None),
                (feasibility, "_vecs", None),
                (bases.OperatorBasis, "vecs", None),
                (transport, "SchmidtMaps", {"d", "s", "X", "Y"}),
                (transport, "_transposed_vecs", None),
                (bases, "OperatorBasis", {"normalization"}),
                (transport, "ConditionAReport", {"norm_e", "norm_f"}),
            ]
        ],
    )
    def test_tolerance_is_fixed(self, owner, name, removed):
        """Each removed tolerance, option and helper stays gone."""
        if removed is None:
            assert not hasattr(owner, name)
        else:
            assert not removed & set(inspect.signature(getattr(owner, name)).parameters)

    def test_removed_exports_are_gone(self):
        assert not {"svd", "pauli_basis", "heisenberg_weyl_basis", "attach_coefficients"} & set(dir(minsep))

    def test_removed_fields_and_report_keys_are_gone(self):
        assert "T" not in {f.name for f in dataclasses.fields(DecompositionMeta)}
        assert "sampled_max" not in {f.name for f in dataclasses.fields(ConditionBReport)}
        assert "svd_rtol" not in tolerances.tolerance_table()


class TestSchmidtTarget:
    @pytest.mark.parametrize("dims", DIMS)
    def test_realigned_target_is_built_once(self, dims):
        state = random_density(800, *dims)
        os = operator_schmidt(state)
        assert bits(os.realigned.view(float)) == bits(core.realigned_sum(os.s, os.X, os.Y).view(float))
        assert not os.realigned.flags.writeable
        assert bits(state.realigned.view(float)) == bits(core.realign(state.rho, *dims).view(float))
        assert not state.realigned.flags.writeable


class TestFrobNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 9), (16, 16), (64, 64)])
    def test_close_to_correctly_rounded_and_order_free(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v = m.view(float).ravel()
        exact = math.sqrt(math.fsum(v * v))
        assert abs(frob_norm(m) - exact) <= 4e-16 * exact
        assert bits(frob_norm(m.T)) == bits(frob_norm(m[::-1])) == bits(frob_norm(m))
