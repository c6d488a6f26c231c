"""Operator-Schmidt decomposition and its normalised separable form."""

import numpy as np
import pytest

from minsep import schmidt
from minsep.bases import hermitian_basis
from minsep.core import realign
from minsep.decompositions import normalized_form
from minsep.schmidt import OperatorSchmidt, operator_schmidt, reconstruct
from minsep.states import bell_state, max_entangled, product_state, random_density
from minsep.tolerances import RECON_TOL

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


# The tuple-key sort _canonical_order used to be, kept as the oracle.
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
def test_lexsort_order_matches_tuple_key_sort(name, state):
    """The array sort gives bit-identical s, X and Y, signed zeros included,
    on degenerate (Bell, max_entangled) and generic spectra alike."""
    s, xs, ys = schmidt._schmidt_hermitian(realign(state.rho, state.dA, state.dB), state.dA, state.dB)
    s_ref, xs_ref, ys_ref = tuple_key_order(s, xs, ys)
    os = operator_schmidt(state)
    assert os.s.tobytes() == s_ref.tobytes()
    assert np.array(os.X).tobytes() == np.array(xs_ref).tobytes()
    assert np.array(os.Y).tobytes() == np.array(ys_ref).tobytes()
    assert os.hermitian == (True,) * os.D


def tied_frames(last):
    """One 2x2 frame per value in ``last``: their vec(X) agree on every key
    column before the last entry, which is that value."""
    head = np.array([0.5, -0.25 + 0.5j, 0.125j])
    return [np.append(head, v).reshape(2, 2) for v in last]


# (s, X) given straight to _canonical_order, with a distinct Y per pair.
DIRECT_ORDER_CASES = {
    # Tied coefficients; the frames split only at the last key column, the
    # imaginary part of the last entry, given in descending order.
    "split-at-last-imag": ([0.5, 0.5], tied_frames([0.3 + 0.2j, 0.3 + 0.1j])),
    "split-at-last-real": ([0.5, 0.5], tied_frames([0.3 + 0.2j, 0.1 + 0.2j])),
    # The same after the sign fix: both leading entries are negative.
    "split-after-flip": ([0.5, 0.5], [-x for x in tied_frames([0.3 + 0.2j, 0.3 + 0.1j])]),
    # Coefficients equal after rounding to 12 decimals, so the frames decide.
    "s-tied-by-rounding": ([0.5 + 1e-14, 0.5], tied_frames([0.9, 0.1])),
    # Entries equal after rounding to 10 decimals, and -0.0 against 0.0: full ties.
    "x-tied-by-rounding": ([0.5, 0.5], tied_frames([0.3 + 4e-12, 0.3])),
    "signed-zero-tie": ([0.5, 0.5], tied_frames([1e-12j, -1e-12j])),
    # An exactly repeated coefficient and frame: a full tie keeps its input order.
    "repeated-pair": ([0.5, 0.5, 0.5], tied_frames([0.2, 0.3, 0.2])),
}


@pytest.mark.parametrize("name", sorted(DIRECT_ORDER_CASES))
def test_canonical_order_on_tied_keys(name):
    """_canonical_order against the tuple-key oracle, bit for bit, where only
    the last key column, or no column at all, separates tied pairs.  Each Y
    is distinct, so the order of full ties shows in Y."""
    s, xs = DIRECT_ORDER_CASES[name]
    s = np.array(s)
    ys = [np.full((3, 3), k + 1j * k) for k in range(len(xs))]
    out = schmidt._canonical_order(s, tuple(xs), tuple(ys))
    ref = tuple_key_order(s, xs, ys)
    assert out[0].tobytes() == ref[0].tobytes()
    assert np.array(out[1]).tobytes() == np.array(ref[1]).tobytes()
    assert np.array(out[2]).tobytes() == np.array(ref[2]).tobytes()


# The sort _canonical_order makes on every spectrum when it has ties, kept as the
# oracle of the tie-free path that returns the SVD order instead.
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
    """On a spectrum with no tie after rounding, the SVD order that _canonical_order
    returns is the full byte-key sort's, bit for bit."""
    state = random_density(seed, d, d)
    s, xs, ys = schmidt._schmidt_hermitian(state.realigned, d, d)
    rounded = np.round(s, 12)
    assert (rounded[1:] < rounded[:-1]).all()  # untied, so the tie-free path is the one taken
    ref = byte_key_order(s, xs, ys)
    out = schmidt._canonical_order(s, xs.copy(), ys.copy())
    assert out[0].tobytes() == ref[0].tobytes()
    assert np.array(out[1]).tobytes() == ref[1].tobytes()
    assert np.array(out[2]).tobytes() == ref[2].tobytes()


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
