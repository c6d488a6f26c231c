"""Matrix arithmetic: Kronecker products, realignment, operator families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frob_norm
from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, OperatorBasis
from minsep.core import family, kron, realign, unrealign
from minsep.decompositions import SeparableDecomposition
from minsep.feasibility import StateSpace
from minsep.schmidt import OperatorSchmidt
from minsep.states import Povm, bell_state, product_state, random_density


def singular_values_charpoly(m: np.ndarray) -> np.ndarray:
    """Independent singular-value oracle: roots of the characteristic
    polynomial of M^dag M.

    Repeated roots of a companion matrix are conditioned like eps^(1/k), so
    comparisons against this oracle must stay at ~1e-4 for fourfold
    degeneracy; use :func:`singular_values_gram` for tight tolerances.
    """
    gram = m.conj().T @ m
    roots = np.roots(np.poly(gram))
    roots = np.sort(np.clip(roots.real, 0.0, None))[::-1]
    return np.sqrt(roots)


def singular_values_gram(m: np.ndarray) -> np.ndarray:
    """Second oracle: eigenvalues of the Gram matrix via the Hermitian
    eigensolver (a different LAPACK path than the SVD)."""
    evals = np.linalg.eigvalsh(m.conj().T @ m)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_array_equal(
            kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]).astype(complex)
        )

    def test_pauli_sum_reconstructs_bell(self):
        # 1/4 (I x I + sx x sx + sy x sy^T + sz x sz) is the Bell projector.
        total = 0.25 * (
            kron(PAULI_I, PAULI_I)
            + kron(PAULI_X, PAULI_X)
            + kron(PAULI_Y, PAULI_Y.T)
            + kron(PAULI_Z, PAULI_Z)
        )
        np.testing.assert_allclose(total, bell_state().rho, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_complex(rng, n, n) for n in (2, 3, 2))
        np.testing.assert_allclose(kron(a, kron(b, c)), kron(kron(a, b), c), atol=1e-9)

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associativity_property(self, seed):
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 4, size=3)
        a, b, c = (random_complex(rng, n, n) for n in dims)
        np.testing.assert_allclose(kron(a, kron(b, c)), kron(kron(a, b), c), atol=1e-9)


class TestRealign:
    def test_product_state_is_rank_one(self):
        rng = np.random.default_rng(7)
        ra = random_complex(rng, 2, 2)
        rb = random_complex(rng, 3, 3)
        m = realign(kron(ra, rb), 2, 3)
        np.testing.assert_allclose(m, np.outer(ra.reshape(-1), rb.reshape(-1)), atol=1e-12)
        assert np.linalg.matrix_rank(m, tol=1e-10) == 1

    def test_bell_singular_values(self):
        m = realign(bell_state().rho, 2, 2)
        np.testing.assert_allclose(singular_values_gram(m), [0.5, 0.5, 0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(
            singular_values_charpoly(m), [0.5, 0.5, 0.5, 0.5], atol=1e-4
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_unrealign_inverse(self, seed):
        rho = random_density(seed, 2, 3).rho
        np.testing.assert_array_equal(unrealign(realign(rho, 2, 3), 2, 3), rho)

    def test_isometry_for_two_norm(self):
        rho = random_density(3, 2, 2).rho
        assert frob_norm(realign(rho, 2, 2)) == frob_norm(rho)

    @pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 6), (8, 8)])
    @pytest.mark.parametrize("seed", range(20))
    def test_two_norm_exact_under_realign_and_unrealign(self, dA, dB, seed):
        # Realignment only permutes entries, so the 2-norm must agree to the
        # last bit, whatever order a summation kernel would visit them in.
        rho = random_density(seed, dA, dB).rho
        assert frob_norm(realign(rho, dA, dB)) == frob_norm(rho)
        m = random_complex(np.random.default_rng(seed), dA**2, dB**2)
        assert frob_norm(unrealign(m, dA, dB)) == frob_norm(m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            realign(np.eye(4), 2, 3)


class TestFamily:
    """One validator for every tuple of d x d operators; a single fault is
    reported with the message the per-member checks gave."""

    def test_returns_read_only_complex_views(self):
        ops = family(([[1, 0], [0, 1]], PAULI_X, PAULI_Y), "ops", 2)
        assert isinstance(ops, tuple) and len(ops) == 3
        for op, ref in zip(ops, (PAULI_I, PAULI_X, PAULI_Y)):
            assert op.dtype == complex and op.shape == (2, 2)
            assert not op.flags.writeable
            np.testing.assert_array_equal(op, ref)
        assert ops[0].base is ops[1].base  # one stacked array

    def test_copies_its_input(self):
        src = np.eye(2, dtype=complex)
        ops = family((src,), "ops")
        src[0, 0] = 5.0
        assert ops[0][0, 0] == 1.0

    def test_empty_family(self):
        assert family((), "ops", 3) == ()
        assert family((), "ops") == ()

    @pytest.mark.parametrize("n, d", [(0, 3), (1, 2), (4, 3), (2, 8)])
    def test_vecs_are_a_read_only_view_of_the_rows(self, n, d):
        ops = np.random.default_rng(n + d).normal(size=(n, d, d)) + 0j
        fam = family(ops, "ops", d)
        vecs, tvecs = fam.vecs, fam.tvecs
        assert vecs.shape == tvecs.shape == (n, d * d) and not vecs.flags.writeable
        assert np.shares_memory(vecs, np.asarray(fam)) or n == 0
        for k in range(n):
            np.testing.assert_array_equal(vecs[k], ops[k].reshape(-1))
            np.testing.assert_array_equal(tvecs[k], ops[k].T.reshape(-1))

    @pytest.mark.parametrize(
        "ops, d, message",
        [
            ((np.eye(2), np.eye(2), np.eye(3)), 2, "X[2] has shape (3, 3), expected (2, 2)"),
            ((np.eye(2), np.eye(3)), None, "X[1] has shape (3, 3), expected (2, 2)"),
            ((np.ones((2, 3)),), None, "X[0] has shape (2, 3), expected (2, 2)"),
            ((np.eye(2), np.ones(4)), 2, "X[1] must be two-dimensional, got shape (4,)"),
            ((np.eye(2), np.diag([1.0, np.nan])), 2, "X[1] contains non-finite entries"),
            ((np.diag([1j * np.inf, 0.0]), np.eye(2)), 2, "X[0] contains non-finite entries"),
            ((np.array([["a", "b"], ["c", "d"]], dtype=object),), 2, "X[0] has entries that are not numbers"),
        ],
    )
    def test_single_fault_message(self, ops, d, message):
        with pytest.raises(ValueError) as info:
            family(ops, "X", d)
        assert str(info.value) == message

    def test_every_family_type_uses_it(self):
        bad = (np.eye(2), np.eye(3))
        cases = [
            (
                lambda: SeparableDecomposition(np.full(2, 0.5), bad, bad),
                "A[1] has shape (3, 3), expected (2, 2)",
            ),
            (
                lambda: StateSpace(2, (np.eye(2), np.full((2, 2), np.inf))),
                "generators[1] contains non-finite entries",
            ),
            (
                lambda: StateSpace(2, [np.array([["a", "b"], ["c", "d"]], dtype=object)]),
                "generators[0] has entries that are not numbers",
            ),
            (lambda: OperatorBasis(2, bad), "ops[1] has shape (3, 3), expected (2, 2)"),
            (
                lambda: Povm(2, (np.eye(2), np.ones(2))),
                "effects[1] must be two-dimensional, got shape (2,)",
            ),
            (
                lambda: Povm(2, (np.diag([1.5, 1.0]), np.diag([-0.5, 0.0]))),
                "effects[1] is not positive semidefinite",
            ),
            (
                lambda: Povm(2, (PAULI_I + 0.1j * PAULI_X, -0.1j * PAULI_X)),
                "effects[0] is not positive semidefinite",
            ),
            (lambda: family(bad, "ops", 2), "ops[1] has shape (3, 3), expected (2, 2)"),
            (lambda: kron([["a"]], [[1]]), "a has entries that are not numbers"),
            (lambda: kron([[1, 2], [3]], [[1]]), "a row 1 has length 1, expected 2"),
            (lambda: kron(np.eye(2), ([1], np.ones(1), [1, 2])), "b row 2 has length 2, expected 1"),
            (lambda: product_state([[1, 0], [0, 0]], [[0.5, 0], [0.5]]), "rho_b row 1 has length 1, expected 2"),
            (lambda: family(([[1, 0], [0]],), "ops", 2), "ops[0] row 1 has length 1, expected 2"),
            (lambda: kron([[1, 2], 3], [[1]]), "a has entries that are not numbers"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_schmidt_frames(self):
        X = (PAULI_I / np.sqrt(2), PAULI_Z / np.sqrt(2))
        with pytest.raises(ValueError, match=r"^Y\[1\] has shape \(3, 3\), expected \(2, 2\)$"):
            OperatorSchmidt(2, 2, np.array([1.0, 0.5]), X, (X[0], np.eye(3)))
        with pytest.raises(ValueError, match=r"^X\[0\] contains non-finite entries$"):
            OperatorSchmidt(2, 2, np.array([1.0]), (np.full((2, 2), np.nan),), X[:1])

    def test_empty_spaces_and_bases_accepted(self):
        assert len(StateSpace(3, ())) == 0
        assert len(StateSpace(3, (), "conic", include_quantum=True)) == 0
        assert len(OperatorBasis(3, ())) == 0
