"""Operator families as matrices over vec(sigma), checked against the
per-matrix loop sums they replace."""

import numpy as np
import pytest

from conftest import apply_map
from minsep.bases import OperatorBasis, heisenberg_weyl_basis, hermitian_basis
from minsep.core import combine, product_sum, realign, unrealign
from minsep.decompositions import random_unitary
from minsep.schmidt import operator_schmidt, reconstruct
from minsep.states import random_density
from minsep.transport import build_maps

BASES = {"hermitian": hermitian_basis, "heisenberg-weyl": heisenberg_weyl_basis}


def inner(a, b):
    """tr(A^dag B), the loop oracle's inner product."""
    return complex(np.sum(np.conj(a) * b))


# The loop sums the SchmidtMaps matrices replaced, kept as the oracle.


def loop_forward_a(maps, sigma):
    out = np.zeros((maps.d, maps.d), dtype=complex)
    for sj, xj, cj in zip(maps.s, maps.X, maps.basis.ops):
        out = out + np.sqrt(sj) * inner(cj, sigma) * xj
    return out


def loop_forward_b(maps, sigma):
    out = np.zeros((maps.d, maps.d), dtype=complex)
    for sj, yj, cj in zip(maps.s, maps.Y, maps.basis.ops):
        out = out + np.sqrt(sj) * inner(cj.T, sigma) * yj
    return out


def loop_inverse_a(maps, sigma):
    out = np.zeros((maps.d, maps.d), dtype=complex)
    for sk, xk, ck in zip(maps.s, maps.X, maps.basis.ops):
        out = out + inner(xk, sigma) / (maps.d * np.sqrt(sk)) * ck
    return out


def loop_inverse_b(maps, sigma):
    out = np.zeros((maps.d, maps.d), dtype=complex)
    for sk, yk, ck in zip(maps.s, maps.Y, maps.basis.ops):
        out = out + inner(yk, sigma) / (maps.d * np.sqrt(sk)) * ck.T
    return out


def loop_apply_joint(maps, op):
    d = maps.d
    out = np.zeros_like(op)
    for i, ci in enumerate(maps.basis.ops):
        ai = d * np.sqrt(maps.s[i]) * maps.X[i]
        for j, cj in enumerate(maps.basis.ops):
            gij = inner(np.kron(ci, cj.T), op) / d**2
            bj = d * np.sqrt(maps.s[j]) * maps.Y[j]
            out = out + gij * np.kron(ai, bj)
    return out


def random_operator(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m / np.linalg.norm(m)


def maps_for(d, basis_name, seed=11):
    return build_maps(operator_schmidt(random_density(seed, d, d)), BASES[basis_name](d))


@pytest.mark.parametrize("basis_name", sorted(BASES))
@pytest.mark.parametrize("d", [2, 3, 4])
class TestSchmidtMapsAgainstLoops:
    def test_local_maps(self, d, basis_name):
        maps = maps_for(d, basis_name)
        rng = np.random.default_rng(d)
        for _ in range(3):
            sigma = random_operator(rng, d)
            for m, oracle in (
                (maps.fwd_a, loop_forward_a),
                (maps.fwd_b, loop_forward_b),
                (maps.inv_a, loop_inverse_a),
                (maps.inv_b, loop_inverse_b),
            ):
                np.testing.assert_allclose(apply_map(m, sigma), oracle(maps, sigma), rtol=0, atol=1e-12)

    def test_apply_joint(self, d, basis_name):
        maps = maps_for(d, basis_name)
        op = random_operator(np.random.default_rng(100 + d), d * d)
        joint = unrealign(maps.fwd_a @ realign(op, d, d) @ maps.fwd_b.T, d, d)
        np.testing.assert_allclose(joint, loop_apply_joint(maps, op), rtol=0, atol=1e-12)

    def test_inverse_is_closed_form_inverse(self, d, basis_name):
        maps = maps_for(d, basis_name)
        eye = np.eye(d * d)
        np.testing.assert_allclose(maps.inv_a @ maps.fwd_a, eye, atol=1e-12)
        np.testing.assert_allclose(maps.inv_b @ maps.fwd_b, eye, atol=1e-12)


class TestFamilyHelpers:
    def test_product_sum_matches_kron_loop(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(size=5)
        A = tuple(random_operator(rng, 2) for _ in range(5))
        B = tuple(random_operator(rng, 3) for _ in range(5))
        ref = sum(wk * np.kron(a, b) for wk, a, b in zip(w, A, B))
        np.testing.assert_allclose(product_sum(w, A, B), ref, rtol=0, atol=1e-14)

    def test_combine_single_and_batched(self):
        rng = np.random.default_rng(5)
        ops = np.asarray([random_operator(rng, 3) for _ in range(4)])
        coeffs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        refs = [sum(c * o for c, o in zip(row, ops)) for row in coeffs]
        np.testing.assert_allclose(combine(coeffs[0], ops), refs[0], atol=1e-14)
        np.testing.assert_allclose(combine(coeffs, ops), np.array(refs), atol=1e-14)

    def test_reconstruct_uneven_dims(self):
        state = random_density(2, 2, 3)
        np.testing.assert_allclose(reconstruct(operator_schmidt(state)), state.rho, atol=1e-12)


class TestOperatorBasisAgainstLoops:
    @pytest.mark.parametrize("d", [2, 3])
    def test_gram_coefficients_assemble(self, d):
        basis = heisenberg_weyl_basis(d)
        gram = np.array([[inner(a, b) for b in basis.ops] for a in basis.ops])
        np.testing.assert_allclose(basis.gram(), gram, atol=1e-13)
        x = random_operator(np.random.default_rng(d), d)
        coeffs = np.array([inner(op, x) / basis.normalization for op in basis.ops])
        np.testing.assert_allclose(basis.coefficients(x), coeffs, atol=1e-14)
        np.testing.assert_allclose(combine(coeffs, basis.ops), x, atol=1e-13)

    def test_empty_basis(self):
        empty = OperatorBasis(3, (), 3.0)
        assert len(empty) == 0
        assert empty.gram().shape == (0, 0)

    def test_unitary_rotation_of_basis_stays_orthogonal(self):
        basis = hermitian_basis(2)
        u = random_unitary(4, 1)
        rotated = OperatorBasis(2, tuple(combine(u, np.asarray(basis.ops))), 2.0)
        np.testing.assert_allclose(rotated.gram(), 2.0 * np.eye(4), atol=1e-12)
