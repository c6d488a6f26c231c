"""Cross-norm-attaining and equal-norm decomposition constructions."""

import warnings

import numpy as np
import pytest
from scipy.linalg import dft, hadamard

from minsep.bases import hermitian_basis, phase_point_operators
from minsep.core import kron
from minsep.crossnorm import DiagonalScaling, decomposition_cost
from minsep import serialize
from minsep.decompositions import (
    SeparableDecomposition,
    attained_costs,
    cross_norm_decomposition,
    equal_norm_check,
    equal_norm_decomposition,
    hermitian_decomposition,
    is_row_isometry,
    is_unitary,
    normalized_form,
    random_orthogonal,
    random_unitary,
)
from minsep.schmidt import OperatorSchmidt, operator_schmidt
from minsep.states import bell_state, random_density
from minsep.tolerances import RECON_TOL


def phase_point_mixing(os):
    """The real orthogonal matrix steering the Bell Schmidt frame onto the
    phase-point operators: O_ik = tr(X_i W_k) / sqrt(2)."""
    ws = phase_point_operators().ops
    o = np.array([[np.trace(x.conj().T @ w).real for w in ws] for x in os.X])
    return o / np.sqrt(2)


class TestRandomMatrices:
    def test_unitary(self):
        u = random_unitary(5, 3)
        assert is_unitary(u)
        np.testing.assert_array_equal(u, random_unitary(5, 3))

    def test_orthogonal(self):
        o = random_orthogonal(5, 3)
        assert is_unitary(o.astype(complex))
        assert np.max(np.abs(o.imag)) == 0 if np.iscomplexobj(o) else True

    def test_row_isometry(self):
        u = random_unitary(5, 0)[:3]
        assert is_row_isometry(u)
        assert not is_unitary(u)

    @pytest.mark.parametrize("n", [1, 2, 4, 9, 16, 63, 64])
    def test_shared_qr_keeps_each_draw(self, n):
        """Bit for bit the separate draws the two names made before they shared one QR helper."""
        for seed in range(30):
            rng = np.random.default_rng(seed)
            q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            d = np.diagonal(r)
            assert random_unitary(n, seed).tobytes() == (q * (d / np.abs(d))).tobytes()
            q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
            o = random_orthogonal(n, seed)
            assert o.dtype == float and o.tobytes() == (q * np.sign(np.diagonal(r))).tobytes()


class TestCrossNormFamily:
    def test_schmidt_choice_recovers_schmidt_terms(self):
        # R = sqrt(S), U = I, c_k = p_k makes p_k A^k x B^k = s_k X_k x Y_k.
        state = random_density(2, 2, 2)
        os = operator_schmidt(state)
        p = np.asarray(os.s) / os.lambda_total
        dec = cross_norm_decomposition(os, DiagonalScaling.sqrt_s(os), np.eye(os.D, dtype=complex), p, p)
        for pk, a, b, sk, x, y in zip(dec.p, dec.A, dec.B, os.s, os.X, os.Y):
            np.testing.assert_allclose(pk * kron(a, b), sk * kron(x, y), atol=1e-10)

    def test_bell_hadamard(self):
        os = operator_schmidt(bell_state())
        u = hadamard(4).astype(complex) / 2.0
        scaling = DiagonalScaling.sqrt_s(os)
        dec = cross_norm_decomposition(os, scaling, u, np.full(4, 0.25), np.ones(4))
        assert dec.terms == 4
        np.testing.assert_allclose(dec.reconstruct(), bell_state().rho, atol=1e-10)
        assert abs(decomposition_cost(dec, scaling) - 2.0) < 1e-10

    def test_bell_wide_isometry(self):
        # A 4x5 row isometry from the first rows of the 5x5 DFT matrix.
        os = operator_schmidt(bell_state())
        u = dft(5, scale="sqrtn")[:4, :]
        assert is_row_isometry(u)
        scaling = DiagonalScaling.sqrt_s(os)
        dec = cross_norm_decomposition(os, scaling, u, np.full(5, 0.2), np.ones(5))
        assert dec.terms == 5
        np.testing.assert_allclose(dec.reconstruct(), bell_state().rho, atol=1e-10)
        assert abs(decomposition_cost(dec, scaling) - 2.0) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_proportionality(self, seed):
        # R^-1 b^k is a positive multiple (c_k) of R a^k for every term.
        state = random_density(seed, 2, 2)
        os = operator_schmidt(state)
        rng = np.random.default_rng(seed)
        scaling = DiagonalScaling(np.exp(rng.normal(0, 0.5, os.D)))
        c = rng.uniform(0.5, 2.0, os.D)
        p = rng.uniform(0.5, 1.5, os.D)
        p /= p.sum()
        dec = cross_norm_decomposition(os, scaling, random_unitary(os.D, seed), p, c)
        for k, (a, b) in enumerate(zip(dec.a_coeff, dec.b_coeff)):
            ra = scaling.r * a
            rb = b / scaling.r
            np.testing.assert_allclose(rb, c[k] * ra, atol=1e-10)

    def test_scale_gauge(self):
        os = operator_schmidt(bell_state())
        scaling = DiagonalScaling.identity(4)
        u = np.eye(4, dtype=complex)
        p = np.full(4, 0.25)
        base = cross_norm_decomposition(os, scaling, u, p, np.ones(4))
        t = 3.7
        scaled = cross_norm_decomposition(os, scaling, u, p, np.full(4, t))
        for a0, b0, a1, b1 in zip(base.A, base.B, scaled.A, scaled.B):
            np.testing.assert_allclose(a1, a0 / np.sqrt(t), atol=1e-12)
            np.testing.assert_allclose(b1, b0 * np.sqrt(t), atol=1e-12)
            np.testing.assert_allclose(kron(a1, b1), kron(a0, b0), atol=1e-12)

    def test_unnormalised_weights_still_reconstruct(self):
        os = operator_schmidt(bell_state())
        p = np.full(4, 0.5)  # sums to 2
        dec = cross_norm_decomposition(
            os, DiagonalScaling.identity(4), np.eye(4, dtype=complex), p, np.ones(4)
        )
        np.testing.assert_allclose(dec.reconstruct(), bell_state().rho, atol=1e-10)

    def test_rejects_bad_inputs(self):
        os = operator_schmidt(bell_state())
        eye = np.eye(4, dtype=complex)
        scaling = DiagonalScaling.identity(4)
        with pytest.raises(ValueError, match="at least"):
            cross_norm_decomposition(os, scaling, eye, np.array([0.0, 0.5, 0.25, 0.25]), np.ones(4))
        with pytest.raises(ValueError, match="isometry"):
            cross_norm_decomposition(os, scaling, 2 * eye, np.full(4, 0.25), np.ones(4))
        with pytest.raises(ValueError, match="size"):
            cross_norm_decomposition(os, DiagonalScaling.identity(3), eye, np.full(4, 0.25), np.ones(4))
        with pytest.raises(ValueError, match="positive"):
            cross_norm_decomposition(os, scaling, eye, np.full(4, 0.25), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_p_or_c_rejected_before_dividing(self, bad):
        os = operator_schmidt(bell_state())
        eye = np.eye(4, dtype=complex)
        scaling = DiagonalScaling.identity(4)
        p = np.array([0.25, bad, 0.25, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a divide warning would fail the test
            with pytest.raises(ValueError, match="^p must be finite$"):
                cross_norm_decomposition(os, scaling, eye, p, np.ones(4))
            with pytest.raises(ValueError, match="^c must be finite$"):
                cross_norm_decomposition(os, scaling, eye, np.full(4, 0.25), bad)
            with pytest.raises(ValueError, match="^c must be finite$"):
                equal_norm_decomposition(os, scaling, eye, bad)
            with pytest.raises(ValueError, match="^c must be finite$"):
                hermitian_decomposition(os, scaling, np.eye(4), bad)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"^A\[1\] has shape \(3, 3\), expected \(2, 2\)$"):
            SeparableDecomposition(np.full(2, 0.5), (np.eye(2), np.eye(3)), (np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match=r"^B\[0\] has shape \(2, 3\), expected \(2, 2\)$"):
            SeparableDecomposition(np.ones(1), (np.eye(2),), (np.ones((2, 3)),))


class TestAttainedCosts:
    @pytest.mark.parametrize("seed, dA, dB", [(7, 2, 2), (1, 2, 3), (3, 3, 3), (5, 4, 4)])
    def test_matches_members_built_by_hand(self, seed, dA, dB):
        """Each cost is that of the member with U = I, p = 1/D, c = 1, built as the crossnorm command
        built it before attained_costs existed, with the scalings drawn in the same order."""
        os = operator_schmidt(random_density(seed, dA, dB))
        rng = np.random.default_rng(9)
        scalings = [DiagonalScaling(np.exp(rng.normal(0.0, 0.5, os.D))) for _ in range(6)]
        expected = []
        for scaling in scalings:
            dec = cross_norm_decomposition(
                os, scaling, np.eye(os.D, dtype=complex), np.full(os.D, 1.0 / os.D), np.ones(os.D)
            )
            expected.append(decomposition_cost(dec, scaling))
        costs = attained_costs(os, scalings)
        assert costs == expected
        np.testing.assert_allclose(costs, os.lambda_total, rtol=0, atol=1e-9)


class TestEqualNormFamily:
    def test_identity_unitary_recovers_schmidt_weights(self):
        state = random_density(4, 2, 2)
        os = operator_schmidt(state)
        c = 2.0
        scaling = DiagonalScaling(np.full(os.D, np.sqrt(1 / c)))
        dec = equal_norm_decomposition(os, scaling, np.eye(os.D, dtype=complex), c)
        np.testing.assert_allclose(dec.p, np.asarray(os.s) / os.lambda_total, atol=1e-12)
        np.testing.assert_allclose(dec.reconstruct(), state.rho, atol=1e-9)

    def test_bell_identity(self):
        os = operator_schmidt(bell_state())
        dec = equal_norm_decomposition(os, DiagonalScaling.identity(4), np.eye(4, dtype=complex), 1.0)
        np.testing.assert_allclose(dec.p, [0.25] * 4, atol=1e-14)
        for a in dec.a_coeff:
            assert abs(np.linalg.norm(a) - np.sqrt(2)) < 1e-12

    def test_bell_phase_point_frame(self):
        os = operator_schmidt(bell_state())
        o = phase_point_mixing(os)
        assert is_unitary(o.astype(complex))
        dec = equal_norm_decomposition(os, DiagonalScaling.identity(4), o.astype(complex), 1.0)
        ws = phase_point_operators().ops
        np.testing.assert_allclose(dec.p, [0.25] * 4, atol=1e-12)
        for a, b, w in zip(dec.A, dec.B, ws):
            np.testing.assert_allclose(a, w, atol=1e-10)
            np.testing.assert_allclose(b, w.T, atol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_states_weights_and_stochasticity(self, seed):
        dA = 2 if seed % 2 == 0 else 3
        state = random_density(seed, dA, dA)
        os = operator_schmidt(state)
        u = random_unitary(os.D, seed + 1)
        c = 0.5 + (seed % 5) * 0.5
        dec = equal_norm_decomposition(os, DiagonalScaling.identity(os.D), u, c)
        expected = np.array(
            [sum(abs(u[i, k]) ** 2 * os.s[i] for i in range(os.D)) for k in range(os.D)]
        ) / os.lambda_total
        np.testing.assert_allclose(dec.p, expected, atol=1e-12)
        ds = np.abs(u) ** 2
        np.testing.assert_allclose(ds.sum(axis=0), np.ones(os.D), atol=1e-10)
        np.testing.assert_allclose(ds.sum(axis=1), np.ones(os.D), atol=1e-10)
        np.testing.assert_allclose(dec.reconstruct(), state.rho, atol=1e-9)

    def test_rejects_non_unitary(self):
        os = operator_schmidt(bell_state())
        with pytest.raises(ValueError, match="unitary"):
            equal_norm_decomposition(os, DiagonalScaling.identity(4), dft(5, scale="sqrtn")[:4, :], 1.0)


class TestEqualNormCheck:
    @pytest.mark.parametrize("seed", range(20))
    def test_equal_norm_outputs_pass(self, seed):
        dA = 2 if seed < 10 else 3
        state = random_density(200 + seed, dA, dA)
        os = operator_schmidt(state)
        rng = np.random.default_rng(seed)
        scaling = DiagonalScaling(np.exp(rng.normal(0, 0.3, os.D)))
        dec = equal_norm_decomposition(os, scaling, random_unitary(os.D, seed), 1.5)
        report = equal_norm_check(dec, scaling)
        assert report.passed
        assert report.max_dev_a < 1e-9 and report.max_dev_b < 1e-9
        assert report.expected_w is not None
        assert abs(np.mean(report.w_a) - report.expected_w) < 1e-9

    def test_nonuniform_scale_factors_fail(self):
        os = operator_schmidt(bell_state())
        scaling = DiagonalScaling.identity(4)
        u = hadamard(4).astype(complex) / 2.0
        dec = cross_norm_decomposition(
            os, scaling, u, np.full(4, 0.25), np.array([1.0, 2.0, 3.0, 4.0])
        )
        report = equal_norm_check(dec, scaling)
        assert not report.passed
        assert report.max_dev_a > 1e-3

    def test_single_term_passes(self):
        x = np.eye(2, dtype=complex) / np.sqrt(2)
        dec = SeparableDecomposition(
            np.array([1.0]), (np.sqrt(2) * x,), (np.sqrt(2) * x,),
            (np.array([np.sqrt(2)]),), (np.array([np.sqrt(2)]),),
        )
        report = equal_norm_check(dec, DiagonalScaling.identity(1))
        assert report.passed


def matrix_unit_schmidt():
    """A Schmidt form built directly on the matrix units |i><j|, whose
    off-diagonal members are not Hermitian: operator_schmidt never returns one."""
    units = tuple(np.eye(4, dtype=complex).reshape(4, 2, 2))
    return OperatorSchmidt(2, 2, np.array([0.4, 0.3, 0.2, 0.1]), units, units)


class TestHermitianVariant:
    def test_bell_identity_gives_paulis(self):
        os = operator_schmidt(bell_state())
        dec = hermitian_decomposition(os, DiagonalScaling.identity(4), np.eye(4), 1.0)
        paulis = hermitian_basis(2).ops
        for a in dec.A:
            np.testing.assert_allclose(a, a.conj().T, atol=1e-12)
            assert any(np.allclose(a, sgn * p, atol=1e-10) for p in paulis for sgn in (1, -1))

    def test_bell_phase_point_rotation(self):
        os = operator_schmidt(bell_state())
        dec = hermitian_decomposition(os, DiagonalScaling.identity(4), phase_point_mixing(os), 1.0)
        for a, w in zip(dec.A, phase_point_operators().ops):
            np.testing.assert_allclose(a, w, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rotation_hermitian(self, seed):
        state = random_density(300 + seed, 2, 2)
        os = operator_schmidt(state)
        dec = hermitian_decomposition(
            os, DiagonalScaling.identity(4), random_orthogonal(4, seed), 1.0
        )
        for op in (*dec.A, *dec.B):
            assert np.max(np.abs(op - op.conj().T)) < 1e-10

    def test_rejects_complex_mixing(self):
        os = operator_schmidt(bell_state())
        with pytest.raises(ValueError, match="real"):
            hermitian_decomposition(os, DiagonalScaling.identity(4), random_unitary(4, 0), 1.0)

    def test_rejects_non_hermitian_frame(self):
        os = matrix_unit_schmidt()
        assert os.hermitian == (True, False, False, True) and not os.hermitisable
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_decomposition(os, DiagonalScaling.identity(os.D), np.eye(os.D), 1.0)


# Every input the three builders and SeparableDecomposition reject, with its
# exact message.  Pinned elsewhere and not repeated here: a non-finite p or c
# (TestCrossNormFamily::test_non_finite_p_or_c_rejected_before_dividing), a
# mixed-shape A or B (test_mixed_shapes_rejected and
# test_core.py::TestFamily::test_every_family_type_uses_it) and a term that
# is not Hermitian (test_stacked_paths.py::TestHermitianVariant).
BELL_EYE = np.eye(4, dtype=complex)
QUARTER = np.full(4, 0.25)
REJECTED = {
    "cn-u-rows": (lambda os, r: cross_norm_decomposition(os, r, BELL_EYE[:3], QUARTER, 1.0),
                  "U must have 4 rows, got shape (3, 4)"),
    "cn-u-vector": (lambda os, r: cross_norm_decomposition(os, r, np.ones(4), QUARTER, 1.0),
                    "U must have 4 rows, got shape (4,)"),
    "cn-u-not-isometric": (lambda os, r: cross_norm_decomposition(os, r, 2 * BELL_EYE, QUARTER, 1.0),
                           "U is not a row isometry (U U^dag != I)"),
    "cn-scaling-size": (lambda os, r: cross_norm_decomposition(os, DiagonalScaling.identity(3), BELL_EYE, QUARTER, 1.0),
                        "scaling has size 3, expected 4"),
    "cn-p-length": (lambda os, r: cross_norm_decomposition(os, r, BELL_EYE, QUARTER[:3], 1.0),
                    "p must have length 4"),
    "cn-p-matrix": (lambda os, r: cross_norm_decomposition(os, r, BELL_EYE, QUARTER[:, None], 1.0),
                    "p must have length 4"),
    "cn-p-below-min-weight": (lambda os, r: cross_norm_decomposition(os, r, BELL_EYE, [1e-13, 0.5, 0.25, 0.25], 1.0),
                              "weights must be at least 1e-12"),
    "cn-p-negative": (lambda os, r: cross_norm_decomposition(os, r, BELL_EYE, [-0.25, 0.5, 0.25, 0.5], 1.0),
                      "weights must be at least 1e-12"),
    "cn-c-zero": (lambda os, r: cross_norm_decomposition(os, r, BELL_EYE, QUARTER, np.zeros(4)),
                  "scale factors c must be strictly positive"),
    "cn-c-negative": (lambda os, r: cross_norm_decomposition(os, r, BELL_EYE, QUARTER, -1.0),
                      "scale factors c must be strictly positive"),
    "en-u-shape": (lambda os, r: equal_norm_decomposition(os, r, BELL_EYE[:3, :3], 1.0),
                   "U must be a square unitary of size D"),
    "en-u-wide": (lambda os, r: equal_norm_decomposition(os, r, np.eye(4, 5), 1.0),
                  "U must be a square unitary of size D"),
    "en-u-not-unitary": (lambda os, r: equal_norm_decomposition(os, r, 2 * BELL_EYE, 1.0),
                         "U must be a square unitary of size D"),
    "en-c-array": (lambda os, r: equal_norm_decomposition(os, r, BELL_EYE, np.ones(2)),
                   "c must be a single positive number"),
    "en-c-zero": (lambda os, r: equal_norm_decomposition(os, r, BELL_EYE, 0.0),
                  "c must be strictly positive"),
    "en-c-negative": (lambda os, r: equal_norm_decomposition(os, r, BELL_EYE, -2.0),
                      "c must be strictly positive"),
    "en-scaling-size": (lambda os, r: equal_norm_decomposition(os, DiagonalScaling.identity(5), BELL_EYE, 1.0),
                        "scaling has size 5, expected 4"),
    "herm-o-complex": (lambda os, r: hermitian_decomposition(os, r, 1j * np.eye(4), 1.0),
                       "O must be real"),
    "herm-o-unitary": (lambda os, r: hermitian_decomposition(os, r, random_unitary(4, 0), 1.0),
                       "O must be real"),
    "herm-o-shape": (lambda os, r: hermitian_decomposition(os, r, np.eye(3), 1.0),
                     "O must be a square real orthogonal matrix of size D"),
    "herm-o-not-orthogonal": (lambda os, r: hermitian_decomposition(os, r, 2 * np.eye(4), 1.0),
                              "O must be a square real orthogonal matrix of size D"),
    "herm-o-unitary-real-part": (lambda os, r: hermitian_decomposition(os, r, np.eye(4)[::-1] * (1 + 1e-12j), 1.0), None),
    "herm-c-array": (lambda os, r: hermitian_decomposition(os, r, np.eye(4), [1.0, 2.0]),
                     "c must be a single positive number"),
    "herm-c-zero": (lambda os, r: hermitian_decomposition(os, r, np.eye(4), 0.0),
                    "c must be strictly positive"),
    "herm-scaling-size": (lambda os, r: hermitian_decomposition(os, DiagonalScaling.identity(2), np.eye(4), 1.0),
                          "scaling has size 2, expected 4"),
    "herm-frame-not-hermitian": (lambda os, r: hermitian_decomposition(matrix_unit_schmidt(), r, np.eye(4), 1.0),
                                 "Schmidt frame is not Hermitian; no Hermitian variant exists"),
    "sd-p-matrix": (lambda os, r: SeparableDecomposition(np.full((1, 1), 1.0), (np.eye(2),), (np.eye(2),)),
                    "p must be a nonempty 1-d array"),
    "sd-p-empty": (lambda os, r: SeparableDecomposition(np.zeros(0), (), ()),
                   "p must be a nonempty 1-d array"),
    "sd-p-below-min-weight": (lambda os, r: SeparableDecomposition([1.0, 1e-13], (np.eye(2),) * 2, (np.eye(2),) * 2),
                              "weights below 1e-12 are rejected"),
    "sd-p-negative": (lambda os, r: SeparableDecomposition([1.0, -1.0], (np.eye(2),) * 2, (np.eye(2),) * 2),
                      "weights below 1e-12 are rejected"),
    "sd-p-nan": (lambda os, r: SeparableDecomposition([np.nan, 0.5], (np.eye(2),) * 2, (np.eye(2),) * 2),
                 "p must be finite"),
    "sd-p-inf": (lambda os, r: SeparableDecomposition([np.inf], (np.eye(2),), (np.eye(2),)), "p must be finite"),
    "sd-lengths": (lambda os, r: SeparableDecomposition([0.5, 0.5], (np.eye(2),) * 2, (np.eye(2),)),
                   "A and B must match the number of weights"),
    "sd-b-non-finite": (lambda os, r: SeparableDecomposition([1.0], (np.eye(2),), (np.full((2, 2), np.inf),)),
                        "B[0] contains non-finite entries"),
    "sd-a-vector": (lambda os, r: SeparableDecomposition([1.0], (np.ones(4),), (np.eye(2),)),
                    "A[0] must be two-dimensional, got shape (4,)"),
    "sd-a-coeff-rows": (lambda os, r: SeparableDecomposition([1.0], (np.eye(2),), (np.eye(2),), np.ones((2, 4))),
                        "a_coeff must have one row per weight, got shape (2, 4)"),
    "sd-b-coeff-vector": (lambda os, r: SeparableDecomposition([1.0], (np.eye(2),), (np.eye(2),), np.ones((1, 4)), np.ones(4)),
                          "b_coeff must have one row per weight, got shape (4,)"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_message(case):
    """The exact message of each rejected input; a None message marks an
    input that is accepted (an imaginary part within ATOL)."""
    build, message = REJECTED[case]
    os = operator_schmidt(bell_state())
    if message is None:
        assert build(os, DiagonalScaling.identity(4)).terms == 4
        return
    with pytest.raises(ValueError) as info:
        build(os, DiagonalScaling.identity(4))
    assert str(info.value) == message


@pytest.mark.parametrize("dims", [(2, 5), (5, 2), (3, 8), (6, 6), (8, 8)])
class TestBuildersAcrossScope:
    """The three builders at unequal dimensions and up to d = 8, as far as the package is
    advertised, each on one seeded state, positive scaling and mixing."""

    @staticmethod
    def families(dims):
        state = random_density(900 + sum(dims), *dims)
        os = operator_schmidt(state)
        rng = np.random.default_rng(dims)
        scaling = DiagonalScaling(np.exp(rng.normal(0, 0.3, os.D)))
        n = os.D + 3
        p = rng.uniform(0.5, 1.5, n)
        c = rng.uniform(0.5, 2.0, n)
        decs = {
            "cross-norm": (cross_norm_decomposition(os, scaling, random_unitary(n, 1)[: os.D], p / p.sum(), c), c),
            "equal-norm": (equal_norm_decomposition(os, scaling, random_unitary(os.D, 2), 1.5), 1.5),
            "hermitian": (hermitian_decomposition(os, scaling, random_orthogonal(os.D, 3), 0.7), 0.7),
        }
        return state, os, scaling, decs

    def test_reconstruction_cost_and_coefficients(self, dims):
        state, os, scaling, decs = self.families(dims)
        assert os.D == min(dims) ** 2
        for name, (dec, c) in decs.items():
            assert np.linalg.norm(dec.reconstruct() - state.rho) <= RECON_TOL * np.linalg.norm(state.rho), name
            assert abs(decomposition_cost(dec, scaling) - os.lambda_total) <= 1e-9 * os.lambda_total, name
            a = scaling.r * np.asarray(dec.a_coeff)  # row k: R a^k
            b = np.asarray(dec.b_coeff) / scaling.r  # row k: R^-1 b^k
            np.testing.assert_allclose(b, np.reshape(c, (-1, 1)) * a, rtol=0, atol=1e-12 * np.abs(b).max())
        for name in ("equal-norm", "hermitian"):
            assert equal_norm_check(decs[name][0], scaling).passed, name
        herm = decs["hermitian"][0]
        for ops in (herm.A, herm.B):
            np.testing.assert_allclose(ops, np.conj(np.swapaxes(ops, 1, 2)), rtol=0, atol=1e-12)


class TestGatedResidual:
    """Constructions keep the relative residual they gated; other records hold None."""

    def test_constructions_keep_it(self):
        os = operator_schmidt(random_density(3, 2, 3))
        dec = normalized_form(os)
        assert 0 <= os.residual <= RECON_TOL and 0 <= dec.residual <= RECON_TOL

    def test_none_when_built_directly_or_decoded(self):
        os = operator_schmidt(bell_state())
        dec = normalized_form(os)
        assert OperatorSchmidt(os.dA, os.dB, os.s, os.X, os.Y).residual is None
        assert SeparableDecomposition(dec.p, dec.A, dec.B).residual is None
        wire = serialize.encode_decomposition(dec)
        assert "residual" not in wire and serialize.decode_decomposition(wire).residual is None
