"""Transformed 2-norms, cross-norm values, and decomposition costs."""

import numpy as np
import pytest

from conftest import proportionality_violation, random_mixed_decomposition
from minsep.bases import PAULI_X
from minsep.crossnorm import (
    DiagonalScaling,
    cross_norm_value,
    decomposition_cost,
    lambda_norm,
    _scaled_norms,
)
from minsep.decompositions import cross_norm_decomposition, normalized_form
from minsep.schmidt import operator_schmidt
from minsep.states import bell_state, max_entangled, product_state, random_density


class TestLambdaNorm:
    def test_identity_on_pauli(self):
        assert abs(lambda_norm(PAULI_X, np.eye(4)) - np.sqrt(2)) < 1e-12

    def test_homogeneous_scaling(self):
        assert abs(lambda_norm(PAULI_X, 0.5 * np.eye(4)) - np.sqrt(2) / 2) < 1e-12

    def test_diagonal_transform_on_identity(self):
        lam = np.diag([2.0, 1.0, 1.0, 1.0])
        x = np.eye(2) / np.sqrt(2)
        assert abs(lambda_norm(x, lam) - 2.0) < 1e-12

    def test_homogeneity_in_operator(self):
        rng = np.random.default_rng(3)
        lam = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for t in (-2.0, 0.5, 3 + 1j):
            assert abs(lambda_norm(t * x, lam) - abs(t) * lambda_norm(x, lam)) < 1e-9

    def test_rejects_singular_map(self):
        lam = np.zeros((4, 4))
        with pytest.raises(ValueError, match="invertible"):
            lambda_norm(PAULI_X, lam)

    def test_strict_triangle_inequality(self):
        # The 2-norm is strictly convex, so after any fixed invertible map the
        # triangle inequality is strict except on nonnegative-proportional pairs.
        rng = np.random.default_rng(17)
        lam = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gaps = []
        for _ in range(1000):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gap = lambda_norm(x, lam) + lambda_norm(y, lam) - lambda_norm(x + y, lam)
            gaps.append(gap)
        assert min(gaps) > 1e-6

    def test_triangle_equality_on_proportional_pair(self):
        rng = np.random.default_rng(18)
        lam = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = 2.5 * x
        gap = lambda_norm(x, lam) + lambda_norm(y, lam) - lambda_norm(x + y, lam)
        assert abs(gap) < 1e-9


class TestScaledNorms:
    def test_identity(self):
        r = DiagonalScaling(np.ones(3))
        assert abs(_scaled_norms([[1.0, 0, 0]], r)[0] - 1.0) < 1e-14

    def test_forward(self):
        r = DiagonalScaling(np.array([2.0, 1.0]))
        assert abs(_scaled_norms([[1.0, 1.0]], r)[0] - np.sqrt(5)) < 1e-14

    def test_inverse(self):
        r = DiagonalScaling(np.array([2.0, 1.0]))
        assert abs(_scaled_norms([[1.0, 1.0]], r, inverse=True)[0] - np.sqrt(1.25)) < 1e-14

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            _scaled_norms([np.ones(3)], DiagonalScaling(np.ones(2)))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="positive"):
            DiagonalScaling(np.array([1.0, 0.0]))


class TestCrossNormValue:
    def test_bell_any_scaling(self):
        os = operator_schmidt(bell_state())
        assert abs(cross_norm_value(os) - 2.0) < 1e-10
        for r in (np.ones(4), np.array([2.0, 1.0, 0.5, 3.0])):
            scaling = DiagonalScaling(r)
            dec = cross_norm_decomposition(os, scaling, np.eye(4, dtype=complex), np.full(4, 0.25), np.ones(4))
            assert abs(decomposition_cost(dec, scaling) - 2.0) < 1e-10

    def test_max_entangled_3(self):
        assert abs(cross_norm_value(operator_schmidt(max_entangled(3))) - 3.0) < 1e-10

    def test_product_state(self):
        os = operator_schmidt(product_state(np.eye(2) / 2, np.eye(2) / 2))
        assert abs(cross_norm_value(os) - 0.5) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_attained_cost_invariant_over_ten_scalings(self, seed):
        state = random_density(60 + seed, 2, 2)
        os = operator_schmidt(state)
        value = cross_norm_value(os)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            scaling = DiagonalScaling(np.exp(rng.normal(0, 0.5, os.D)))
            dec = cross_norm_decomposition(
                os, scaling, np.eye(os.D, dtype=complex),
                np.full(os.D, 1.0 / os.D), np.ones(os.D),
            )
            assert abs(decomposition_cost(dec, scaling) - value) < 1e-9


class TestDecompositionCost:
    def test_optimal_family_attains_value_with_sqrt_s(self):
        os = operator_schmidt(bell_state())
        scaling = DiagonalScaling.sqrt_s(os)
        dec = cross_norm_decomposition(
            os, scaling, np.eye(4, dtype=complex), np.full(4, 0.25), np.full(4, 0.25)
        )
        assert abs(decomposition_cost(dec, scaling) - 2.0) < 1e-12

    def test_schmidt_form_with_identity_scaling(self):
        # Four terms of weight 1/4, each contributing sqrt(2) * sqrt(2).
        os = operator_schmidt(bell_state())
        dec = normalized_form(os)
        cost = decomposition_cost(dec, DiagonalScaling.identity(4))
        assert abs(cost - 2.0) < 1e-12

    def test_non_optimal_mixing_costs_more(self):
        state = random_density(23, 2, 2)
        os = operator_schmidt(state)
        assert np.max(np.abs(np.diff(os.s))) > 1e-3  # distinct spectrum
        dec = random_mixed_decomposition(os, seed=5)
        scaling = DiagonalScaling.identity(os.D)
        np.testing.assert_allclose(dec.reconstruct(), state.rho, atol=1e-9)
        assert decomposition_cost(dec, scaling) > cross_norm_value(os) + 1e-6

    @pytest.mark.parametrize("seed", range(50))
    def test_lower_bound_for_arbitrary_decompositions(self, seed):
        state = random_density(100 + seed, 2, 2)
        os = operator_schmidt(state)
        dec = random_mixed_decomposition(os, seed=seed)
        rng = np.random.default_rng(seed)
        scaling = DiagonalScaling(np.exp(rng.normal(0, 0.5, os.D)))
        cost = decomposition_cost(dec, scaling)
        assert cost >= cross_norm_value(os) - 1e-9
        if proportionality_violation(dec, scaling) > 1e-3:
            assert cost > cross_norm_value(os) + 1e-6

    def test_requires_coefficients(self):
        os = operator_schmidt(bell_state())
        dec = normalized_form(os)
        stripped = type(dec)(dec.p, dec.A, dec.B)
        with pytest.raises(ValueError) as info:
            decomposition_cost(stripped, DiagonalScaling.identity(4))
        assert str(info.value) == "decomposition has no coefficient vectors"
        assert abs(decomposition_cost(dec, DiagonalScaling.identity(4)) - 2.0) < 1e-12
