"""Operator bases: Gram matrices and phase-point identities."""

import numpy as np
import pytest

from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, OperatorBasis, hermitian_basis, phase_point_operators
from minsep.core import combine, kron
from minsep.states import bell_state, max_entangled


def gram(ops):
    n = len(ops)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = np.trace(ops[i].conj().T @ ops[j])
    return g


class TestPhasePoints:
    def test_unit_traces_and_orthogonality(self):
        w = phase_point_operators().ops
        assert abs(np.trace(w[0]) - 1.0) < 1e-14
        assert abs(np.trace(w[0] @ w[1])) < 1e-14
        np.testing.assert_allclose(gram(w), 2 * np.eye(4), atol=1e-14)

    def test_sum_is_twice_identity(self):
        total = sum(phase_point_operators().ops)
        np.testing.assert_allclose(total, 2 * np.eye(2), atol=1e-14)

    def test_uniform_mixture_is_bell(self):
        w = phase_point_operators().ops
        mix = sum(kron(wi, wi.T) for wi in w) / 4
        np.testing.assert_allclose(mix, bell_state().rho, atol=1e-14)

    def test_hermitian(self):
        for wi in phase_point_operators().ops:
            np.testing.assert_allclose(wi, wi.conj().T, atol=1e-14)


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gram_and_hermiticity(self, d):
        basis = hermitian_basis(d)
        assert len(basis) == d * d and basis.complete
        np.testing.assert_allclose(gram(basis.ops), d * np.eye(d * d), atol=1e-12)
        for op in basis.ops:
            np.testing.assert_allclose(op, op.conj().T, atol=1e-14)

    def test_d2_is_pauli(self):
        ours = hermitian_basis(2).ops
        for a, b in zip(ours, (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_validate_and_rescale(self):
        basis = hermitian_basis(3)
        np.testing.assert_allclose(gram(basis.ops), 3 * np.eye(9), atol=1e-12)
        with pytest.raises(ValueError, match="not orthogonal with kappa=3"):
            OperatorBasis(3, np.asarray(basis.ops) / np.sqrt(3))

    def test_built_once_per_dimension(self):
        basis = hermitian_basis(3)
        assert hermitian_basis(3) is basis
        assert hermitian_basis(2) is not basis
        for op in basis.ops:
            assert not op.flags.writeable


class TestCoefficients:
    def test_round_trip(self):
        basis = hermitian_basis(3)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(combine(basis.coefficients(x), basis.ops), x, atol=1e-12)

    def test_maximally_entangled_expansion(self):
        # Psi = (1/d^2) sum_i C_i x C_i^T for a Hermitian reference basis.
        d = 3
        basis = hermitian_basis(d)
        mix = sum(kron(c, c.T) for c in basis.ops) / d**2
        np.testing.assert_allclose(mix, max_entangled(d).rho, atol=1e-12)
