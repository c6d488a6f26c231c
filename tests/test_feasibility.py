"""Nonnegative separable fits, deletion minimality, sampled quantum hulls."""

import numpy as np
import pytest

from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, phase_point_operators
from minsep.core import kron
from minsep.crossnorm import DiagonalScaling
from minsep.decompositions import equal_norm_decomposition
from minsep.feasibility import (
    StateSpace,
    deletion_minimality,
    quantum_augmented_feasible,
    separable_feasible,
    weights_feasible,
)
from minsep.schmidt import operator_schmidt
from minsep.states import (
    BipartiteState,
    bell_state,
    haar_projectors,
    max_entangled,
    product_state,
    random_density,
)
from minsep.tolerances import FEAS_TOL
from minsep.transport import (
    build_maps,
    build_w_basis,
    check_condition_a,
    construct_alignment,
    minimal_quantum_spaces,
    transported_decomposition,
)


def phase_point_spaces(mode="convex", include_quantum=False):
    ws = phase_point_operators().ops
    va = StateSpace(2, ws, mode, include_quantum)
    vb = StateSpace(2, tuple(w.T for w in ws), mode, include_quantum)
    return va, vb


def pauli_spaces():
    a = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    b = (PAULI_I, PAULI_X, PAULI_Y.T, PAULI_Z)
    return StateSpace(2, a, "convex"), StateSpace(2, b, "convex")


def projected_gradient_nnls(a, b, iters=4000):
    """Independent oracle: accelerated projected gradient for min ||Ax-b||,
    x >= 0, with the momentum restarted whenever it points uphill, as in
    ``test_feasibility_kkt.simplex_oracle``, which makes it converge linearly
    on these fits."""
    at_a = a.T @ a
    at_b = a.T @ b
    step = 1.0 / np.linalg.norm(at_a, 2)
    x = np.zeros(a.shape[1])
    z = x.copy()
    t = 1.0
    for _ in range(iters):
        grad = at_a @ z - at_b
        x_new = np.clip(z - step * grad, 0.0, None)
        if (z - x_new) @ (x_new - x) > 0:
            t = 1.0
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        z = x_new + (t - 1) / t_new * (x_new - x)
        x, t = x_new, t_new
    return x, float(np.linalg.norm(a @ x - b))


class TestSeparableFeasible:
    def test_bell_phase_point_diagonal_weights(self):
        va, vb = phase_point_spaces()
        result = separable_feasible(bell_state(), va, vb)
        assert result.feasible
        np.testing.assert_allclose(result.weights, np.eye(4) / 4, atol=1e-7)
        assert result.residual < 1e-8

    def test_bell_missing_phase_point_infeasible(self):
        va, vb = phase_point_spaces()
        result = separable_feasible(bell_state(), va.without(0), vb)
        assert not result.feasible
        assert result.residual > 0.1

    def test_product_state_singletons(self):
        rho_a = np.diag([0.7, 0.3]).astype(complex)
        rho_b = np.diag([0.4, 0.6]).astype(complex)
        state = product_state(rho_a, rho_b)
        result = separable_feasible(
            state, StateSpace(2, (rho_a,), "convex"), StateSpace(2, (rho_b,), "convex")
        )
        assert result.feasible
        np.testing.assert_allclose(result.weights, [[1.0]], atol=1e-9)

    def test_feasible_weights_reconstruct(self):
        va, vb = phase_point_spaces()
        result = separable_feasible(bell_state(), va, vb)
        fit = sum(
            result.weights[i, j] * kron(va.generators[i], vb.generators[j])
            for i in range(4)
            for j in range(4)
        )
        assert np.linalg.norm(fit - bell_state().rho) <= 1e-8

    def test_empty_generators(self):
        result = separable_feasible(
            bell_state(), StateSpace(2, (), "convex"), StateSpace(2, (), "convex")
        )
        assert not result.feasible
        assert abs(result.residual - 1.0) < 1e-12  # ||Bell||_2 = 1

    def test_monotone_under_generator_growth(self):
        ws = phase_point_operators().ops
        state = random_density(8, 2, 2)
        prev = np.inf
        for n in (1, 2, 3, 4):
            va = StateSpace(2, ws[:n], "conic")
            vb = StateSpace(2, tuple(w.T for w in ws[:n]), "conic")
            residual = separable_feasible(state, va, vb).residual
            assert residual <= prev + 1e-12
            prev = residual

    def test_mode_mismatch_rejected(self):
        va, _ = phase_point_spaces("convex")
        _, vb = phase_point_spaces("conic")
        with pytest.raises(ValueError, match="mode"):
            separable_feasible(bell_state(), va, vb)

    def test_dimension_mismatch_rejected(self):
        va, vb = phase_point_spaces()
        with pytest.raises(ValueError, match="dims"):
            separable_feasible(random_density(0, 3, 3), va, vb)

    def test_rejects_quantum_augmented_spaces(self):
        va, vb = phase_point_spaces(include_quantum=True)
        with pytest.raises(ValueError, match="quantum_augmented_feasible"):
            separable_feasible(bell_state(), va, vb)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_projected_gradient_oracle(self, seed):
        rng = np.random.default_rng(seed)
        gens_a = tuple(
            (lambda h: h + h.conj().T)(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(3)
        )
        gens_b = tuple(
            (lambda h: h + h.conj().T)(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(3)
        )
        state = random_density(seed, 2, 2)
        va = StateSpace(2, gens_a, "conic")
        vb = StateSpace(2, gens_b, "conic")
        result = separable_feasible(state, va, vb)

        cols = np.column_stack(
            [kron(a, b).reshape(-1) for a in gens_a for b in gens_b]
        )
        design = np.vstack([cols.real, cols.imag])
        target = np.concatenate([state.rho.reshape(-1).real, state.rho.reshape(-1).imag])
        _, oracle_residual = projected_gradient_nnls(design, target)
        assert abs(result.residual - oracle_residual) < 1e-7


def transported(d):
    state = max_entangled(d)
    os_ = operator_schmidt(state)
    maps = build_maps(os_)
    w = build_w_basis(maps, construct_alignment(check_condition_a(os_)))
    return state, transported_decomposition(maps, w)


def equal_norm_bell():
    os_ = operator_schmidt(bell_state())
    dec = equal_norm_decomposition(
        os_, DiagonalScaling.identity(os_.D), np.eye(os_.D, dtype=complex), 1.0
    )
    return bell_state(), dec


class TestWeightsFeasible:
    @pytest.mark.parametrize("mode", ["convex", "conic"])
    @pytest.mark.parametrize(
        "make", [lambda: transported(2), lambda: transported(3), equal_norm_bell],
        ids=["transported-2", "transported-3", "equal-norm-bell"],
    )
    def test_decomposition_point_certifies(self, make, mode):
        state, dec = make()
        va = StateSpace(state.dA, dec.A, mode)
        vb = StateSpace(state.dB, dec.B, mode)
        result = weights_feasible(state, va, vb, np.diag(dec.p))
        assert result.feasible
        assert abs(result.residual - np.linalg.norm(state.rho - dec.reconstruct())) <= 1e-15
        np.testing.assert_array_equal(result.weights, np.diag(dec.p))

    @pytest.mark.parametrize("mode, feasible", [("convex", False), ("conic", True)])
    def test_doubled_generators_break_only_the_simplex(self, mode, feasible):
        state, dec = transported(2)
        va = StateSpace(2, tuple(2 * a for a in dec.A), mode)
        vb = StateSpace(2, dec.B, mode)
        result = weights_feasible(state, va, vb, np.diag(dec.p / 2))
        assert result.residual <= FEAS_TOL
        assert result.feasible is feasible
        if mode == "convex":
            assert abs(result.constraint_violation - 0.5) <= 1e-12

    def test_negative_weight_is_not_in_the_hull(self):
        # Bell = (II + XX - YY + ZZ) / 4: an exact reconstruction whose Y
        # weight is negative, so only the sign check can reject it.
        paulis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
        va, vb = StateSpace(2, paulis, "conic"), StateSpace(2, paulis, "conic")
        result = weights_feasible(bell_state(), va, vb, np.diag([0.25, 0.25, -0.25, 0.25]))
        assert result.residual <= FEAS_TOL
        assert not result.feasible

    def test_wrong_shape_rejected(self):
        va, vb = phase_point_spaces()
        with pytest.raises(ValueError, match="shape"):
            weights_feasible(bell_state(), va, vb, np.full(4, 0.25))


class TestDeletionMinimality:
    def test_bell_pauli_frame(self):
        report = deletion_minimality(bell_state(), *pauli_spaces())
        assert len(report.records) == 8
        assert report.passed
        assert all(r.residual >= 1e-3 for r in report.records)

    def test_bell_phase_point_frame(self):
        report = deletion_minimality(bell_state(), *phase_point_spaces())
        assert report.passed

    def test_redundant_generator_detected(self):
        ws = phase_point_operators().ops
        va = StateSpace(2, ws + (PAULI_I,), "convex")
        _, vb = phase_point_spaces()
        report = deletion_minimality(bell_state(), va, vb)
        assert not report.passed
        redundant = [r for r in report.records if r.side == "A" and r.index == 4]
        assert redundant[0].feasible

    def test_singleton_passes_vacuously(self):
        rho_a = np.diag([0.7, 0.3]).astype(complex)
        rho_b = np.diag([0.4, 0.6]).astype(complex)
        state = product_state(rho_a, rho_b)
        report = deletion_minimality(
            state, StateSpace(2, (rho_a,), "convex"), StateSpace(2, (rho_b,), "convex")
        )
        assert report.passed  # deleting the only generator leaves nothing


class TestQuantumAugmented:
    def test_bell_with_phase_points_ignores_samples(self):
        va, vb = phase_point_spaces(include_quantum=True)
        result = quantum_augmented_feasible(bell_state(), va, vb, sample_budget=50, seed=0)
        assert result.feasible
        sample_mass = np.sum(result.weights[4:, :]) + np.sum(result.weights[:4, 4:])
        assert sample_mass < 1e-6
        np.testing.assert_allclose(result.weights[:4, :4], np.eye(4) / 4, atol=1e-6)

    def test_bell_against_quantum_states_alone(self):
        va = StateSpace(2, (), "convex", include_quantum=True)
        vb = StateSpace(2, (), "convex", include_quantum=True)
        result = quantum_augmented_feasible(bell_state(), va, vb, sample_budget=200, seed=1)
        assert not result.feasible
        assert result.residual > 0.4  # entangled: bounded away from the hull

    def test_maximally_mixed_feasible(self):
        state = BipartiteState(2, 2, np.eye(4, dtype=complex) / 4)
        va = StateSpace(2, (), "convex", include_quantum=True)
        vb = StateSpace(2, (), "convex", include_quantum=True)
        result = quantum_augmented_feasible(state, va, vb, sample_budget=4, seed=0)
        assert result.feasible

    @pytest.mark.parametrize("mode", ["convex", "conic"])
    def test_d5_minimal_quantum_spaces_at_budget_16(self, mode):
        # The hull fit's largest shape: 46 generators a side, 2,116 products.
        state = max_entangled(5)
        os_ = operator_schmidt(state)
        maps = build_maps(os_)
        w = build_w_basis(maps, construct_alignment(check_condition_a(os_)))
        va, vb = minimal_quantum_spaces(maps, w, mode)
        result = quantum_augmented_feasible(state, va, vb, sample_budget=16, seed=3)
        assert result.weights.shape == (46, 46)
        assert result.feasible and result.residual <= FEAS_TOL

    @pytest.mark.parametrize("d, count", [(3, 18), (4, 20)])
    def test_sampled_convex_fit_stays_off_max_entangled(self, d, count):
        # A convex fit is a separable sigma with <Phi|sigma|Phi> <= 1/d, so
        # ||Phi - sigma|| >= <Phi, Phi - sigma> >= 1 - 1/d.
        rng = np.random.default_rng(d)
        va, vb = (
            StateSpace(d, np.concatenate([np.eye(d)[None] / d, haar_projectors(rng, d, count)]), "convex")
            for _ in range(2)
        )
        result = separable_feasible(max_entangled(d), va, vb)
        assert not result.feasible
        assert result.residual >= 1 - 1 / d

    def test_requires_quantum_flag(self):
        va, vb = phase_point_spaces()
        with pytest.raises(ValueError, match="neither"):
            quantum_augmented_feasible(bell_state(), va, vb, sample_budget=4, seed=0)


class TestStateSpaceValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            StateSpace(2, (PAULI_I,), "affine")

    def test_quantum_convex_requires_unit_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            StateSpace(2, (PAULI_I,), "convex", include_quantum=True)

    def test_quantum_conic_requires_positive_trace(self):
        with pytest.raises(ValueError, match="positive trace"):
            StateSpace(2, (PAULI_X,), "conic", include_quantum=True)

    def test_traceless_generators_fine_without_quantum(self):
        space = StateSpace(2, (PAULI_X, PAULI_Y), "convex")
        assert len(space) == 2

    def test_without_keeps_order(self):
        space = StateSpace(2, (PAULI_I, PAULI_X, PAULI_Y), "convex")
        for k in range(3):
            kept = [g for i, g in enumerate((PAULI_I, PAULI_X, PAULI_Y)) if i != k]
            assert all(np.array_equal(a, b) for a, b in zip(space.without(k).generators, kept))

    @pytest.mark.parametrize("index", [-1, -3, 3, 5])
    def test_without_rejects_index_outside_range(self, index):
        # Slicing would drop the last generator for -1, or none for 3 and 5.
        space = StateSpace(2, (PAULI_I, PAULI_X, PAULI_Y), "convex")
        with pytest.raises(IndexError, match=r"0 <= k < 3"):
            space.without(index)
