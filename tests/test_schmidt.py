"""Operator-Schmidt decomposition and its normalised separable form."""

import numpy as np
import pytest

from minsep import schmidt
from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, hermitian_basis
from minsep.core import realign
from minsep.decompositions import normalized_form
from minsep.schmidt import OperatorSchmidt, operator_schmidt, reconstruct
from minsep.states import BipartiteState, bell_state, max_entangled, product_state, random_density, random_pure_state
from minsep.tolerances import RANK_CUTOFF, RECON_TOL

from conftest import near_max_entangled
from test_core import singular_values_charpoly, singular_values_gram

DIMS = [(2, 2), (2, 3), (3, 3)]
I_NORMED = np.eye(2, dtype=complex) / np.sqrt(2)


def seeded_states(count, dims=DIMS):
    for dA, dB in dims:
        for seed in range(count):
            yield random_density(1000 * dA + 10 * dB + seed, dA, dB)


class TestSpectrum:
    def test_bell(self):
        os = operator_schmidt(bell_state())
        assert os.D == 4
        np.testing.assert_allclose(os.s, [0.5] * 4, atol=1e-12)
        assert abs(os.lambda_total - 2.0) < 1e-12
        # Independent oracle on the realignment.
        oracle = singular_values_gram(realign(bell_state().rho, 2, 2))
        np.testing.assert_allclose(os.s, oracle, atol=1e-10)

    def test_product_state_single_term(self):
        os = operator_schmidt(product_state(np.eye(2) / 2, np.eye(2) / 2))
        assert os.D == 1
        np.testing.assert_allclose(os.s, [0.5], atol=1e-14)

    def test_max_entangled_3(self):
        os = operator_schmidt(max_entangled(3))
        assert os.D == 9
        np.testing.assert_allclose(os.s, np.full(9, 1 / 3), atol=1e-12)
        assert abs(os.lambda_total - 3.0) < 1e-10
        oracle = singular_values_gram(realign(max_entangled(3).rho, 3, 3))
        np.testing.assert_allclose(os.s, oracle, atol=1e-10)

    def test_rank_matches_matrix_rank(self):
        for state in seeded_states(3):
            os = operator_schmidt(state)
            m = realign(state.rho, state.dA, state.dB)
            assert os.D == np.linalg.matrix_rank(m, tol=1e-10)

    def test_bell_vs_charpoly_oracle(self):
        m = realign(bell_state().rho, 2, 2)
        np.testing.assert_allclose(operator_schmidt(bell_state()).s, singular_values_charpoly(m), atol=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_state_vs_charpoly_oracle(self, seed):
        # Generic spectra are simple, so the companion-matrix roots are
        # well conditioned here.
        state = random_density(seed, 2, 2)
        m = realign(state.rho, 2, 2)
        np.testing.assert_allclose(operator_schmidt(state).s, singular_values_charpoly(m), atol=1e-8)

    @pytest.mark.parametrize("seed", range(100))
    def test_reconstruction_residual(self, seed):
        dA, dB = np.random.default_rng(seed).integers(1, 5, size=2)
        state = random_density(seed, dA, dB)
        os = operator_schmidt(state)
        assert np.linalg.norm(reconstruct(os) - state.rho) <= 1e-12 * np.linalg.norm(state.rho)
        assert os.D == min(dA, dB) ** 2 and np.all(np.diff(os.s) <= 0) and np.all(os.s > 0)
        for frame in (os.X, os.Y):
            v = np.asarray(frame).reshape(os.D, -1)
            np.testing.assert_allclose(v.conj() @ v.T, np.eye(os.D), atol=1e-12)

    def test_two_norm_preserved(self):
        for state in seeded_states(3):
            os = operator_schmidt(state)
            purity = np.real(np.trace(state.rho.conj().T @ state.rho))
            assert abs(np.sum(os.s**2) - purity) < 1e-9


class TestFrames:
    def test_orthonormal(self):
        for state in seeded_states(3):
            os = operator_schmidt(state)
            for frame in (os.X, os.Y):
                g = np.array([[np.vdot(a.reshape(-1), b.reshape(-1)) for b in frame] for a in frame])
                np.testing.assert_allclose(g, np.eye(os.D), atol=1e-9)

    def test_hermitian_for_hermitian_input(self):
        for state in seeded_states(2):
            os = operator_schmidt(state)
            assert os.hermitisable
            for x, y in zip(os.X, os.Y):
                np.testing.assert_allclose(x, x.conj().T, atol=1e-10)
                np.testing.assert_allclose(y, y.conj().T, atol=1e-10)

    def test_trace_identity_for_unit_trace_states(self):
        # tr(rho) = 1 forces sum_i s_i tr(X_i) tr(Y_i) = 1.
        for state in seeded_states(3):
            os = operator_schmidt(state)
            total = sum(
                si * np.trace(x) * np.trace(y) for si, x, y in zip(os.s, os.X, os.Y)
            )
            assert abs(total - 1.0) < 1e-9

    def test_bell_frame_is_pauli_up_to_sign(self):
        os = operator_schmidt(bell_state())
        paulis = hermitian_basis(2).ops
        for x in os.X:
            scaled = np.sqrt(2) * x
            assert any(
                np.allclose(scaled, sgn * p, atol=1e-10)
                for p in paulis
                for sgn in (1, -1)
            )

    def test_deterministic(self):
        a = operator_schmidt(random_density(5, 2, 2))
        b = operator_schmidt(random_density(5, 2, 2))
        np.testing.assert_array_equal(a.s, b.s)
        for x1, x2 in zip(a.X, b.X):
            np.testing.assert_array_equal(x1, x2)


class TestReconstruct:
    def test_round_trip(self):
        for state in seeded_states(7, DIMS):
            os = operator_schmidt(state)
            np.testing.assert_allclose(reconstruct(os), state.rho, atol=1e-9)

    def test_bell_reconstructs(self):
        np.testing.assert_allclose(
            reconstruct(operator_schmidt(bell_state())), bell_state().rho, atol=1e-12
        )

    def test_single_term(self):
        x = np.eye(2, dtype=complex) / np.sqrt(2)
        os = OperatorSchmidt(2, 2, np.array([1.0]), (x,), (x,))
        np.testing.assert_allclose(reconstruct(os), np.eye(4) / 2, atol=1e-14)


class TestNormalizedForm:
    def test_bell_weights_and_operators(self):
        dec = normalized_form(operator_schmidt(bell_state()))
        np.testing.assert_allclose(dec.p, [0.25] * 4, atol=1e-12)
        paulis = hermitian_basis(2).ops
        for a in dec.A:
            # sqrt(lambda) X_i with lambda = 2: exactly a signed Pauli.
            assert any(
                np.allclose(a, sgn * p, atol=1e-10) for p in paulis for sgn in (1, -1)
            )

    def test_product_state_single_weight(self):
        dec = normalized_form(operator_schmidt(product_state(np.eye(2) / 2, np.eye(2) / 2)))
        np.testing.assert_allclose(dec.p, [1.0], atol=1e-14)

    def test_weights_sum_to_one(self):
        for state in seeded_states(7):
            dec = normalized_form(operator_schmidt(state))
            assert abs(np.sum(dec.p) - 1.0) < 1e-12
            np.testing.assert_allclose(dec.reconstruct(), state.rho, atol=1e-9)


class TestValidation:
    @pytest.mark.parametrize("arg", [np.eye(4) / 4, [[1.0]], None], ids=["ndarray", "list", "none"])
    def test_takes_a_state_only(self, arg):
        with pytest.raises(TypeError) as info:
            operator_schmidt(arg)
        assert str(info.value) == f"operator_schmidt takes a BipartiteState, got {type(arg).__name__}"

    def test_rejects_increasing_s(self):
        x = np.eye(2, dtype=complex) / np.sqrt(2)
        with pytest.raises(ValueError, match="nonincreasing"):
            OperatorSchmidt(2, 2, np.array([0.5, 1.0]), (x, x), (x, x))

    # Pinned elsewhere: a Y member of the wrong shape and a non-finite X member
    # (test_core.py::TestFamily::test_schmidt_frames).
    @pytest.mark.parametrize(
        "dims, s, X, Y, message",
        [
            ((2, 2), [[0.5]], (I_NORMED,), (I_NORMED,), "s must be a nonempty 1-d array"),
            ((2, 2), [], (), (), "s must be a nonempty 1-d array"),
            ((2, 2), [0.5, 0.0], (I_NORMED,) * 2, (I_NORMED,) * 2, "Schmidt coefficients must be strictly positive"),
            ((2, 2), [-0.5], (I_NORMED,), (I_NORMED,), "Schmidt coefficients must be strictly positive"),
            ((2, 2), [0.5, 1.0], (I_NORMED,) * 2, (I_NORMED,) * 2, "Schmidt coefficients must be nonincreasing"),
            ((2, 2), [1.0, 0.5], (I_NORMED,), (I_NORMED,) * 2, "X and Y must match the number of coefficients"),
            ((2, 2), [1.0], (I_NORMED,), (I_NORMED,) * 2, "X and Y must match the number of coefficients"),
            ((1, 1), [1.0, 0.5], (np.eye(1),) * 2, (np.eye(1),) * 2, "rank exceeds min(dA^2, dB^2)"),
            ((2, 2), [1.0, 0.5], (I_NORMED, np.eye(3)), (I_NORMED,) * 2, "X[1] has shape (3, 3), expected (2, 2)"),
            ((2, 2), [1.0], (np.ones(4),), (I_NORMED,), "X[0] must be two-dimensional, got shape (4,)"),
            ((2, 2), [1.0], (I_NORMED,), (np.diag([np.nan, 1.0]),), "Y[0] contains non-finite entries"),
            ((2, 2), [np.nan], (I_NORMED,), (I_NORMED,), "Schmidt coefficients must be finite"),
            ((2, 2), [np.inf], (I_NORMED,), (I_NORMED,), "Schmidt coefficients must be finite"),
            ((2, 2), [0.5, -np.inf], (I_NORMED,) * 2, (I_NORMED,) * 2, "Schmidt coefficients must be finite"),
        ],
    )
    def test_constructor_messages(self, dims, s, X, Y, message):
        with pytest.raises(ValueError) as info:
            OperatorSchmidt(*dims, np.array(s, dtype=float), X, Y)
        assert str(info.value) == message

    def test_outputs_immutable(self):
        os = operator_schmidt(bell_state())
        with pytest.raises(ValueError):
            os.s[0] = 1.0
        with pytest.raises(ValueError):
            os.X[0][0, 0] = 1.0


ORDER_CASES = (
    [("bell", bell_state())]
    + [(f"max-entangled-{d}", max_entangled(d)) for d in range(2, 9)]
    + [(f"near-max-{d}/{seed}", near_max_entangled(seed, d)) for d in (2, 3, 4, 6, 8) for seed in (7, 8)]
    + [
        (f"random-{dA}x{dB}/{seed}", random_density(seed, dA, dB))
        for dA, dB in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4))
        for seed in (5, 6)
    ]
)
# Unequal local dimensions up to 8.
UNEQUAL_CASES = [(f"random-{dA}x{dB}/5", random_density(5, dA, dB)) for dA, dB in ((2, 8), (8, 2), (6, 8), (8, 6))]
ORDER_CASES += UNEQUAL_CASES


@pytest.mark.parametrize("name, state", ORDER_CASES, ids=[c[0] for c in ORDER_CASES])
def test_gauge_ignores_the_basis_within_clusters(name, state):
    """Hermitian frames on degenerate (Bell, max_entangled) and generic spectra
    alike; and the gauge gives the same frames, up to rounding, from any
    orthonormal basis of each cluster of tied coefficients.  An untied spectrum
    keeps the tuple-key order, bit for bit, signed zeros included."""
    os = operator_schmidt(state)
    assert os.hermitian == (True,) * os.D
    if untied(os.s):
        s_ref, xs_ref, ys_ref = tuple_key_order(*svd_frames(state))
        assert os.s.tobytes() == s_ref.tobytes()
        assert np.array(os.X).tobytes() == np.array(xs_ref).tobytes()
        assert np.array(os.Y).tobytes() == np.array(ys_ref).tobytes()
    s, left, right = svd_parts(state)
    ref = left.copy(), right.copy()
    schmidt._gauge(s, *ref)
    starts = np.flatnonzero(np.r_[True, s[:-1] - s[1:] > 1e-12 * s[0]])
    rng = np.random.default_rng(3)
    for a, k in zip(starts, np.diff(np.r_[starts, len(s)])):  # rotate each cluster jointly, keeping the product
        turn = np.linalg.qr(rng.normal(size=(k, k)))[0]
        left[:, a:a + k] = left[:, a:a + k] @ turn
        right[a:a + k] = turn.T @ right[a:a + k]
    schmidt._gauge(s, left, right)
    signs = np.sign(np.sum(left * ref[0], axis=0))
    np.testing.assert_allclose(left * signs, ref[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(right * signs[:, None], ref[1], rtol=0, atol=1e-12)


def svd_parts(state):
    """The cut SVD that ``_schmidt_hermitian`` gauges, from the same Hermitian part of the
    realignment, bit for bit: s, left vectors as columns, right as rows."""
    dA, dB, m = state.dA, state.dB, state.realigned
    m = 0.5 * (m + np.conj(m.reshape(dA, dA, dB, dB).transpose(1, 0, 3, 2)).reshape(dA * dA, dB * dB))
    (_, pa_dag, _), (_, _, pb_conj) = schmidt._frame(dA), schmidt._frame(dB)
    o1, s, o2t = np.linalg.svd((pa_dag @ m @ pb_conj).real)
    keep = np.flatnonzero(s > RANK_CUTOFF)  # o1, o2t are square
    return s[keep], o1[:, keep], o2t[keep]


def svd_frames(state):
    """(s, X, Y) of the cut SVD in SVD order, before any gauge or sign rule."""
    s, left, right = svd_parts(state)
    (pa, _, _), (pb, _, _) = schmidt._frame(state.dA), schmidt._frame(state.dB)
    return s, (pa @ left).T.reshape(-1, state.dA, state.dA), (right @ pb.T).reshape(-1, state.dB, state.dB)


def untied(s):
    return bool((s[:-1] - s[1:] > 1e-12 * s[0]).all())


# The tuple-key sort the canonical order once was: on an untied spectrum it is the sign rule
# and the SVD order, so it stays the oracle there.
def tuple_key_order(s, Xs, Ys):
    fixed = []
    for si, x, y in zip(s, Xs, Ys):
        v = x.reshape(-1)
        idx = np.flatnonzero(np.abs(v) > 1e-8)
        if len(idx):
            lead = v[idx[0]]
            flip = lead.real < -1e-12 or (abs(lead.real) <= 1e-12 and lead.imag < 0)
            if flip:
                x, y = -x, -y
        key = tuple((round(c.real, 10), round(c.imag, 10)) for c in x.reshape(-1))
        fixed.append((si, key, x, y))
    fixed.sort(key=lambda t: (-round(t[0], 12), t[1]))
    s_out = np.array([t[0] for t in fixed])
    return s_out, [t[2] for t in fixed], [t[3] for t in fixed]


# The byte-key sort the canonical order once made on every tied spectrum, kept as the oracle
# of the untied path, which returns the SVD order with the sign rule.
def byte_key_order(s, Xs, Ys):
    X, Y = np.array(Xs, order="C"), np.array(Ys, order="C")
    n = len(X)
    v = X.reshape(n, -1)
    big = np.abs(v) > 1e-8
    lead = v[np.arange(n), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (np.where(np.abs(lead.real) > 1e-12, lead.real, lead.imag) < 0)
    np.negative(X, out=X, where=flip[:, None, None])
    np.negative(Y, out=Y, where=flip[:, None, None])
    key = np.column_stack([-np.round(s, 12), np.round(v.view(float), 10)]) + 0.0
    bits = key.view(np.int64)
    rows = (bits ^ ((bits >> 63) | np.int64(-2**63))).astype(">i8").view(f"V{key[0].nbytes}")
    order = np.argsort(rows[:, 0], kind="stable")
    return s[order], X[order], Y[order]


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("seed", [21, 22])
def test_tie_free_order_matches_byte_key_sort(d, seed):
    """On a spectrum with no tie, the gauge is idle and ``_schmidt_hermitian`` returns the
    full byte-key sort of the raw SVD frames, bit for bit."""
    state = random_density(seed, d, d)
    s, xs, ys = svd_frames(state)
    rounded = np.round(s, 12)
    assert (rounded[1:] < rounded[:-1]).all() and untied(s)
    ref = byte_key_order(s, xs, ys)
    out = schmidt._schmidt_hermitian(state.realigned, d, d)
    assert out[0].tobytes() == ref[0].tobytes()
    assert np.array(out[1]).tobytes() == ref[1].tobytes()
    assert np.array(out[2]).tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_full_cluster_is_the_reference_basis(d):
    """A maximally entangled state's d^2 coefficients are all tied, and the gauge,
    in increasing eigenvalue order, returns hermitian_basis(d) / sqrt(d) itself,
    each member signed by the sign rule (Bell: I, X, -Y, Z)."""
    os = operator_schmidt(max_entangled(d))
    ref = np.asarray(hermitian_basis(d).ops) / np.sqrt(d)
    signs = np.sign(np.sum(np.asarray(os.X).real * ref.real + np.asarray(os.X).imag * ref.imag, axis=(1, 2)))
    np.testing.assert_allclose(os.X, signs[:, None, None] * ref, rtol=0, atol=1e-12)
    if d == 2:
        assert signs.tolist() == [1, 1, -1, 1]


def perturbed(state, seed):
    """``state`` plus a Hermitian matrix of Frobenius norm 1e-15."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(state.dim, state.dim)) + 1j * rng.normal(size=(state.dim, state.dim))
    e += e.conj().T
    return BipartiteState(state.dA, state.dB, state.rho + 1e-15 * e / np.linalg.norm(e))


PERTURBED_CASES = [
    ("bell", bell_state()),
    ("max-entangled:3", max_entangled(3)),
    ("max-entangled:8", max_entangled(8)),
    ("random-pure:0:2:2", random_pure_state(0, 2, 2)),
    ("random-pure:0:3:3", random_pure_state(0, 3, 3)),
    ("random-pure:0:8:8", random_pure_state(0, 8, 8)),
]


@pytest.mark.parametrize("name, state", PERTURBED_CASES, ids=[c[0] for c in PERTURBED_CASES])
def test_frames_are_stable_under_rounding_level_perturbations(name, state):
    """Tied clusters get frames that depend only on the state: a perturbation of
    size 1e-15 moves them by rounding, where an arbitrary basis from the SVD moved
    them by O(1).  (Pairs of distinct coefficients delta apart still move by up to
    about 1e-15 / delta, which no gauge removes; here delta > 5e-6.)"""
    os = operator_schmidt(state)
    for seed in range(3):
        moved = operator_schmidt(perturbed(state, seed))
        assert moved.D == os.D
        assert np.abs(np.asarray(moved.X) - np.asarray(os.X)).max() <= 1e-12
        assert np.abs(np.asarray(moved.Y) - np.asarray(os.Y)).max() <= 1e-12


def test_gauge_breaks_a_tie_inside_its_own_matrix():
    """V spanning {(e1 + e3)/sqrt(2), e2} gives V^T diag(1, 2, 3, 4) V the eigenvalues
    2 and 2; the cluster then takes diag(1, 4, 9, 16), which orders e2 (4) before
    (e1 + e3)/sqrt(2) (5), whatever basis of the span it came in, and the product
    is kept."""
    e = np.eye(4)
    span = np.column_stack([(e[0] + e[2]) / np.sqrt(2), e[1]])
    s, right = np.array([0.5, 0.5]), np.random.default_rng(1).normal(size=(2, 4))
    for angle in (0.0, 0.3, 2.0):
        turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        left, rows = span @ turn, turn.T @ right
        product = left @ (s[:, None] * rows)
        schmidt._gauge(s, left, rows)
        signs = np.sign(left.sum(axis=0))
        np.testing.assert_allclose(left * signs, span[:, ::-1], rtol=0, atol=1e-14)
        np.testing.assert_allclose(left @ (s[:, None] * rows), product, rtol=0, atol=1e-14)


def test_state_whose_cluster_ties_inside_the_gauge():
    """(1/4)(I I + a (H H + Y Y) + b K K) with H = (X + Z)/sqrt(2), K = (Z - X)/sqrt(2):
    the a-cluster spans the coordinates (e2 + e4)/sqrt(2) and e3, tied at 3 under
    diag(1, 2, 3, 4), so diag(1, 4, 9, 16) orders Y (9) before H (10).  The frames
    stay put under a 1e-15 perturbation."""
    h, k = (PAULI_X + PAULI_Z) / np.sqrt(2), (PAULI_Z - PAULI_X) / np.sqrt(2)
    rho = (np.kron(PAULI_I, PAULI_I) + 0.3 * (np.kron(h, h) + np.kron(PAULI_Y, PAULI_Y)) + 0.1 * np.kron(k, k)) / 4
    state = BipartiteState(2, 2, rho)
    os = operator_schmidt(state)
    np.testing.assert_allclose(os.s, [0.5, 0.15, 0.15, 0.05], rtol=0, atol=1e-14)
    for got, want in zip(os.X[1:3], (PAULI_Y, h)):
        assert min(np.abs(got - want / np.sqrt(2)).max(), np.abs(got + want / np.sqrt(2)).max()) <= 1e-14
    moved = operator_schmidt(perturbed(state, 0))
    assert np.abs(np.asarray(moved.X) - np.asarray(os.X)).max() <= 1e-12


def test_gauge_tied_under_both_diagonals_raises():
    """{1, 5, 6} and {2, 3, 7} have equal sums and equal sums of squares, so the
    span of their indicator vectors is tied under both diagonals."""
    e = np.eye(9)
    left = np.column_stack([e[[0, 4, 5]].sum(axis=0), e[[1, 2, 6]].sum(axis=0)]) / np.sqrt(3)
    with pytest.raises(ValueError, match="^Schmidt gauge is degenerate: a tied cluster has no unique frame$"):
        schmidt._gauge(np.array([0.5, 0.5]), left, np.eye(2))


@pytest.mark.parametrize("name, state", UNEQUAL_CASES, ids=[c[0] for c in UNEQUAL_CASES])
def test_unequal_dimensions_up_to_8(name, state):
    """Reconstruction, orthonormal frames and Hermitian frames."""
    os = operator_schmidt(state)
    assert os.D == min(state.dA, state.dB) ** 2
    assert np.linalg.norm(reconstruct(os) - state.rho) <= RECON_TOL * np.linalg.norm(state.rho)
    for frame in (os.X, os.Y):
        v = np.asarray(frame).reshape(os.D, -1)
        np.testing.assert_allclose(v.conj() @ v.T, np.eye(os.D), rtol=0, atol=1e-12)
        np.testing.assert_allclose(frame, np.conj(np.asarray(frame)).transpose(0, 2, 1), rtol=0, atol=1e-12)
    assert os.hermitisable
