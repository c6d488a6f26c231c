"""State and POVM fixtures."""

import numpy as np
import pytest

from minsep.states import (
    BipartiteState,
    Povm,
    bell_state,
    identity_povm,
    magic_povm,
    max_entangled,
    product_state,
    projective_povm,
    random_density,
    random_pure_state,
)


class TestFixtures:
    def test_bell_is_max_entangled_2(self):
        np.testing.assert_array_equal(bell_state().rho, max_entangled(2).rho)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled_is_pure(self, d):
        rho = max_entangled(d).rho
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_density_invariants(self, seed):
        state = random_density(seed, 2, 3)
        rho = state.rho
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12

    def test_random_determinism(self):
        a = random_density(42, 2, 2).rho
        b = random_density(42, 2, 2).rho
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, random_density(43, 2, 2).rho)

    def test_random_pure_is_rank_one(self):
        rho = random_pure_state(1, 2, 2).rho
        assert np.linalg.matrix_rank(rho, tol=1e-10) == 1

    def test_product_state(self):
        state = product_state(np.eye(2) / 2, np.eye(2) / 2)
        np.testing.assert_allclose(state.rho, np.eye(4) / 4)


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        m /= np.trace(m)
        with pytest.raises(ValueError, match="Hermitian"):
            BipartiteState(2, 2, m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError) as info:
            BipartiteState(2, 3, np.eye(4) / 4)
        assert str(info.value) == "rho has shape (4, 4), expected (6, 6)"

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="tr"):
            BipartiteState(2, 2, np.eye(4))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            BipartiteState(2, 2, m)

    def test_state_is_immutable(self):
        state = bell_state()
        with pytest.raises(ValueError):
            state.rho[0, 0] = 2.0


class TestPovm:
    def test_projective_complete(self):
        for axis in "xyz":
            povm = projective_povm(axis)
            total = sum(povm.effects)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-14)

    def test_identity_povm(self):
        assert len(identity_povm(3)) == 1

    def test_magic_povm_effects(self):
        povm = magic_povm(0.5)
        assert len(povm) == 2
        for e in povm.effects:
            assert np.linalg.eigvalsh(e)[0] > -1e-12

    def test_transpose_is_valid(self):
        povm = projective_povm("y").transpose()
        np.testing.assert_allclose(sum(povm.effects), np.eye(2), atol=1e-14)

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="identity"):
            Povm(2, (np.eye(2) / 2,))

    def test_rejects_negative_effect(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            Povm(2, (np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))
