"""Schmidt maps, admissibility conditions, trace-aligned bases, transported
decompositions."""

import numpy as np
import pytest

from conftest import near_max_entangled
from minsep.bases import hermitian_basis, pauli_basis, phase_point_operators
from minsep.core import frob_norm, kron
from minsep.feasibility import quantum_augmented_feasible
from minsep.schmidt import OperatorSchmidt, operator_schmidt
from minsep.states import BipartiteState, bell_state, haar_projectors, max_entangled, random_density, random_pure_state
from minsep.transport import (
    ConditionAReport,
    build_maps,
    build_w_basis,
    check_condition_a,
    check_condition_b,
    construct_alignment,
    minimal_quantum_spaces,
    transported_cost,
    transported_decomposition,
)


def canonical_max_entangled_schmidt(d):
    """The Schmidt form of the maximally entangled state in the Hermitian
    reference frame: s_j = 1/d, X_j = C_j / sqrt(d), Y_j = C_j^T / sqrt(d)."""
    basis = hermitian_basis(d)
    s = np.full(d * d, 1.0 / d)
    xs = tuple(c / np.sqrt(d) for c in basis.ops)
    ys = tuple(c.T / np.sqrt(d) for c in basis.ops)
    return OperatorSchmidt(d, d, s, xs, ys)


def pure_theta(theta):
    """cos(theta)|00> + sin(theta)|11> as a density operator."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(theta)
    psi[3] = np.sin(theta)
    return BipartiteState(2, 2, np.outer(psi, psi.conj()))


def sampled_image_norm(maps, count, seed):
    """Largest 2-norm of ``count`` seeded Haar pure-state projectors pushed
    through either inverse map: a direct look at condition B's norm bound."""
    proj = haar_projectors(np.random.default_rng(seed), maps.d, count).reshape(count, -1)
    images = np.concatenate([proj @ maps.inv_a.T, proj @ maps.inv_b.T])
    return float(np.max(np.linalg.norm(images, axis=1)))


def damped_bell(gamma=0.5):
    """Bell state after one-sided amplitude damping (a non-unital channel)."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    bell = bell_state().rho
    rho = sum(kron(k, np.eye(2)) @ bell @ kron(k, np.eye(2)).conj().T for k in (k0, k1))
    return BipartiteState(2, 2, rho)


def full_rank_pure(seed):
    state = random_pure_state(seed, 2, 2)
    assert operator_schmidt(state).D == 4
    return state


class TestBuildMaps:
    def test_canonical_frame_images(self):
        d = 2
        os = canonical_max_entangled_schmidt(d)
        maps = build_maps(os)
        for c, x in zip(maps.basis.ops, os.X):
            np.testing.assert_allclose(maps.forward_a(c), np.sqrt(d) * x, atol=1e-12)

    def test_bell_with_pauli_reference(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os, pauli_basis())
        for c, x in zip(maps.basis.ops, os.X):
            np.testing.assert_allclose(maps.forward_a(c), np.sqrt(2) * x, atol=1e-12)
            # 2 * sqrt(1/2) = sqrt(2)

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_map_carries_max_entangled_to_state(self, seed):
        state = random_density(seed, 2, 2)
        maps = build_maps(operator_schmidt(state))
        np.testing.assert_allclose(
            maps.apply_joint(max_entangled(2).rho), state.rho, atol=1e-9
        )

    def test_rejects_rank_deficient(self):
        state = pure_theta(0.0)  # product state, rank 1
        with pytest.raises(ValueError, match="deficient"):
            build_maps(operator_schmidt(state))

    def test_linearity(self):
        maps = build_maps(operator_schmidt(random_density(3, 2, 2)))
        rng = np.random.default_rng(0)
        sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        tau = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = maps.forward_a(2.0 * sigma + 3j * tau)
        rhs = 2.0 * maps.forward_a(sigma) + 3j * maps.forward_a(tau)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestInverses:
    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        maps = build_maps(operator_schmidt(random_density(40 + seed % 5, 2, 2)))
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sigma = h + h.conj().T
        np.testing.assert_allclose(maps.inverse_a(maps.forward_a(sigma)), sigma, atol=1e-9)
        np.testing.assert_allclose(maps.inverse_b(maps.forward_b(sigma)), sigma, atol=1e-9)

    def test_w_images_have_norm_sqrt_d(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        alignment = construct_alignment(check_condition_a(os))
        w = build_w_basis(maps, alignment)
        for wk in w.ops:
            assert abs(frob_norm(maps.inverse_a(maps.forward_a(wk))) - np.sqrt(2)) < 1e-10
            assert abs(frob_norm(maps.inverse_b(maps.forward_b(wk.T))) - np.sqrt(2)) < 1e-10

    def test_inverse_norm_formula(self):
        # ||inv(sigma)||^2 = sum_k |x_k|^2 / (d s_k) with x_k = tr(X_k^dag sigma).
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        sigma = np.diag([1.0, 0.0]).astype(complex)
        xs = np.array([np.trace(x.conj().T @ sigma) for x in os.X])
        expected_sq = float(np.sum(np.abs(xs) ** 2 / (2 * np.asarray(os.s))))
        assert abs(frob_norm(maps.inverse_a(sigma)) ** 2 - expected_sq) < 1e-10


class TestConditionA:
    @pytest.mark.parametrize("seed", range(10))
    def test_full_rank_pure_states_pass(self, seed):
        report = check_condition_a(operator_schmidt(full_rank_pure(seed)))
        assert report.passed
        assert report.deviation <= 1e-9
        assert abs(report.norm_e - 1.0) <= 1e-9

    def test_bell_vectors(self):
        report = check_condition_a(operator_schmidt(bell_state()))
        assert report.passed
        np.testing.assert_allclose(report.e, report.f, atol=1e-12)
        assert abs(np.linalg.norm(report.e) - 1.0) < 1e-12

    def test_non_unital_damping_fails(self):
        report = check_condition_a(operator_schmidt(damped_bell()))
        assert not report.passed
        assert report.deviation > 1e-3

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="full Schmidt rank"):
            check_condition_a(operator_schmidt(pure_theta(0.0)))


class TestAlignment:
    def test_fixed_point(self):
        g = np.full(4, 0.5)
        report = ConditionAReport(g, g, 0.0, 1.0, 1.0, True)
        alignment = construct_alignment(report)
        np.testing.assert_allclose(alignment.T, np.eye(4), atol=1e-14)

    def test_bell_householder(self):
        report = check_condition_a(operator_schmidt(bell_state()))
        alignment = construct_alignment(report)
        np.testing.assert_allclose(alignment.T @ report.e, np.full(4, 0.5), atol=1e-12)
        np.testing.assert_allclose(alignment.T @ alignment.T.T, np.eye(4), atol=1e-12)

    def test_seeded_alignments_distinct_and_valid(self):
        report = check_condition_a(operator_schmidt(bell_state()))
        t1 = construct_alignment(report, seed=1)
        t2 = construct_alignment(report, seed=2)
        assert np.max(np.abs(t1.T - t2.T)) > 1e-3
        for ta in (t1, t2):
            np.testing.assert_allclose(ta.T @ report.e, np.full(4, 0.5), atol=1e-10)
            np.testing.assert_allclose(ta.T @ ta.T.T, np.eye(4), atol=1e-10)

    def test_rejects_failed_condition(self):
        report = check_condition_a(operator_schmidt(damped_bell()))
        with pytest.raises(ValueError, match="condition A"):
            construct_alignment(report)


class TestWBasis:
    def test_bell_unit_traces_and_gram(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        gram = np.array(
            [[np.trace(a.conj().T @ b) for b in w.ops] for a in w.ops]
        )
        np.testing.assert_allclose(gram, 2 * np.eye(4), atol=1e-10)
        for wk in w.ops:
            assert abs(np.trace(maps.forward_a(wk)) - 1.0) < 1e-10
            assert abs(np.trace(maps.forward_b(wk.T)) - 1.0) < 1e-10

    def test_phase_point_rotation_recovers_phase_points(self):
        # For the canonical maximally entangled frame the alignment rows
        # (1, r_k)/2 rotate the Pauli reference onto the phase points.
        os = canonical_max_entangled_schmidt(2)
        maps = build_maps(os, pauli_basis())
        bloch = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        t = 0.5 * np.array([[1.0, *r] for r in bloch])
        report = check_condition_a(os)
        np.testing.assert_allclose(t @ report.e, np.full(4, 0.5), atol=1e-12)
        alignment = construct_alignment(report)
        w = build_w_basis(maps, type(alignment)(report.e, np.full(4, 0.5), t))
        for wk, ref in zip(w.ops, phase_point_operators().ops):
            np.testing.assert_allclose(wk, ref, atol=1e-12)

    def test_qutrit_gram(self):
        os = operator_schmidt(max_entangled(3))
        maps = build_maps(os)
        alignment = construct_alignment(check_condition_a(os), seed=7)
        w = build_w_basis(maps, alignment)
        gram = np.array([[np.trace(a.conj().T @ b) for b in w.ops] for a in w.ops])
        np.testing.assert_allclose(gram, 3 * np.eye(9), atol=1e-10)


class TestConditionB:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_max_entangled_passes(self, d):
        maps = build_maps(operator_schmidt(max_entangled(d)))
        report = check_condition_b(maps)
        assert report.passed
        assert abs(report.min_s - 1.0 / d) < 1e-10

    def test_bell_bound(self):
        maps = build_maps(operator_schmidt(bell_state()))
        report = check_condition_b(maps)
        assert abs(report.bound - 1.0) < 1e-10
        assert report.bound < report.ceiling
        assert sampled_image_norm(maps, 100, seed=0) <= report.bound + 1e-9

    def test_weakly_entangled_fails(self):
        maps = build_maps(operator_schmidt(pure_theta(0.1)))
        report = check_condition_b(maps)
        assert not report.passed
        assert report.min_s < 0.25

    @pytest.mark.parametrize(
        "state",
        [
            *(pure_theta(theta) for theta in (0.1, 0.5, np.pi / 4 - 0.15, np.pi / 4 - 0.05)),
            *(near_max_entangled(seed, d) for d in range(2, 7) for seed in (0, 1)),
        ],
        ids=[*(f"theta-{k}" for k in range(4)), *(f"near-max-d{d}-{seed}" for d in range(2, 7) for seed in (0, 1))],
    )
    def test_bound_is_the_inverse_maps_spectral_norm(self, state):
        maps = build_maps(operator_schmidt(state))
        report = check_condition_b(maps)
        norm = max(np.linalg.norm(maps.inv_a, 2), np.linalg.norm(maps.inv_b, 2))
        assert abs(report.bound - norm) <= 1e-12 * norm
        assert not report.passed or report.bound < report.ceiling

    @pytest.mark.parametrize("d", range(2, 7))
    def test_bound_at_max_entangled_is_one(self, d):
        report = check_condition_b(build_maps(operator_schmidt(max_entangled(d))))
        assert report.passed and abs(report.bound - 1.0) <= 4e-16

    def test_norm_ceiling_on_samples(self):
        state = pure_theta(np.pi / 4 - 0.15)
        maps = build_maps(operator_schmidt(state))
        report = check_condition_b(maps)
        sampled = sampled_image_norm(maps, 500, seed=3)
        assert report.passed
        assert sampled <= report.bound + 1e-9
        assert sampled < report.ceiling


class TestTransportedDecomposition:
    def test_max_entangled_with_reference_basis(self):
        # W = C reproduces the uniform reference decomposition of Psi.
        os = canonical_max_entangled_schmidt(2)
        maps = build_maps(os, pauli_basis())
        dec = transported_decomposition(maps, pauli_basis())
        np.testing.assert_allclose(dec.p, np.full(4, 0.25), atol=1e-14)
        for a, c in zip(dec.A, pauli_basis().ops):
            np.testing.assert_allclose(a, c, atol=1e-10)
        for b, c in zip(dec.B, pauli_basis().ops):
            np.testing.assert_allclose(b, c.T, atol=1e-10)

    def test_bell_phase_point_images(self):
        os = canonical_max_entangled_schmidt(2)
        maps = build_maps(os, pauli_basis())
        dec = transported_decomposition(maps, phase_point_operators())
        expected = sum(kron(w, w.T) for w in phase_point_operators().ops) / 4
        np.testing.assert_allclose(dec.reconstruct(), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_pipeline_on_full_rank_pure_states(self, seed):
        state = full_rank_pure(seed)
        os = operator_schmidt(state)
        maps = build_maps(os)
        alignment = construct_alignment(check_condition_a(os))
        w = build_w_basis(maps, alignment)
        dec = transported_decomposition(maps, w)
        np.testing.assert_allclose(dec.reconstruct(), state.rho, atol=1e-10)
        for op in (*dec.A, *dec.B):
            assert abs(np.trace(op) - 1.0) < 1e-9

    @pytest.mark.parametrize("t_seed", [None, 17], ids=["reflection", "seeded"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_near_max_entangled_sweep(self, d, t_seed):
        state = near_max_entangled(40 + d, d)
        os = operator_schmidt(state)
        maps = build_maps(os)
        alignment = construct_alignment(check_condition_a(os), seed=t_seed)
        w = build_w_basis(maps, alignment)
        dec = transported_decomposition(maps, w)
        assert dec.terms == d * d
        assert np.linalg.norm(dec.reconstruct() - state.rho) <= 1e-9
        traces = np.trace(np.concatenate([dec.A, dec.B]), axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) <= 1e-9
        assert abs(transported_cost(dec, maps) - d) <= 1e-9
        for mode in ("convex", "conic"):
            va, vb = minimal_quantum_spaces(maps, w, mode=mode)
            assert (va.mode, vb.mode, va.include_quantum, vb.include_quantum) == (mode, mode, True, True)
            np.testing.assert_allclose(va.generators, dec.A, atol=1e-12)
            np.testing.assert_allclose(vb.generators, dec.B, atol=1e-12)

    def test_transported_cost_equals_d(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        dec = transported_decomposition(maps, w)
        assert abs(transported_cost(dec, maps) - 2.0) < 1e-9

    def test_rejects_inconsistent_basis(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        with pytest.raises(ValueError, match="normalisation"):
            transported_decomposition(maps, hermitian_basis(2).rescaled(1.0))


class TestNormExclusivity:
    def test_strict_convex_combinations_fall_below_ceiling(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        images = [maps.forward_a(wk) for wk in w.ops]
        rng = np.random.default_rng(9)
        ceiling = np.sqrt(2)
        worst = 0.0
        for _ in range(500):
            weights = rng.uniform(0.05, 1.0, size=7)
            weights /= weights.sum()
            extras = []
            for _ in range(3):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                extras.append(np.outer(v, v.conj()))
            mix = sum(wi * op for wi, op in zip(weights, images + extras))
            worst = max(worst, frob_norm(maps.inverse_a(mix)))
        assert worst < ceiling - 1e-3


class TestMinimalQuantumSpaces:
    def test_bell_spaces(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        va, vb = minimal_quantum_spaces(maps, w, mode="convex")
        assert len(va) == 4 and len(vb) == 4
        assert va.include_quantum and vb.include_quantum
        result = quantum_augmented_feasible(bell_state(), va, vb, sample_budget=20, seed=0)
        assert result.feasible

    def test_conic_mode_positive_traces(self):
        os = operator_schmidt(bell_state())
        maps = build_maps(os)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        va, _ = minimal_quantum_spaces(maps, w, mode="conic")
        for g in va.generators:
            assert np.trace(g).real > 0

    def test_rejects_failing_condition_b(self):
        state = pure_theta(0.1)
        os = operator_schmidt(state)
        maps = build_maps(os)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os)))
        with pytest.raises(ValueError, match="condition B"):
            minimal_quantum_spaces(maps, w)
