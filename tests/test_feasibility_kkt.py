"""The active-set fit reaches the optimum of its hull: conic residuals match
bounded-variable least squares, convex weights lie on the exact simplex at a
projected-gradient oracle's residual, and every returned point meets the KKT
conditions of the explicitly built design."""

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from minsep.bases import phase_point_operators
from minsep.core import kron
from minsep.feasibility import StateSpace, separable_feasible
from minsep.states import bell_state, random_density


def hermitian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return h + h.conj().T


def random_spaces(seed, mode):
    """Random Hermitian generators in local dimension 2 or 3; the last A-side
    generator is a combination of the first two, so columns are dependent."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    na, nb = rng.integers(2, d * d + 3, size=2)
    gens_a = [hermitian(rng, d) for _ in range(na)]
    gens_b = [hermitian(rng, d) for _ in range(nb)]
    gens_a.append(gens_a[0] + 0.5 * gens_a[1])
    return random_density(seed, d, d), StateSpace(d, gens_a, mode), StateSpace(d, gens_b, mode)


def deleted_phase_point_spaces(mode):
    """Phase-point spaces with one A-side generator removed: infeasible, so
    the optimal residual is strictly positive."""
    ws = phase_point_operators().ops
    return bell_state(), StateSpace(2, ws[1:], mode), StateSpace(2, tuple(w.T for w in ws), mode)


def design(state, va, vb):
    """The real-embedded design of np.kron columns and its target."""
    cols = np.column_stack([kron(a, b).reshape(-1) for a in va.generators for b in vb.generators])
    target = state.rho.reshape(-1)
    return np.vstack([cols.real, cols.imag]), np.concatenate([target.real, target.imag])


def simplex_projection(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1
    k = np.flatnonzero(u * np.arange(1, len(v) + 1) > css)[-1]
    return np.maximum(v - css[k] / (k + 1), 0.0)


def simplex_oracle(a, b, iters=4000):
    """Accelerated projected gradient for min ||ax - b|| over the simplex,
    with the momentum restarted whenever it points uphill (O'Donoghue and
    Candes), which makes it converge linearly on these fits."""
    ata, atb = a.T @ a, a.T @ b
    step = 1.0 / np.linalg.norm(ata, 2)
    x = np.full(a.shape[1], 1.0 / a.shape[1])
    z, t = x.copy(), 1.0
    for _ in range(iters):
        x_new = simplex_projection(z - step * (ata @ z - atb))
        if (z - x_new) @ (x_new - x) > 0:
            t = 1.0
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        z = x_new + (t - 1) / t_new * (x_new - x)
        x, t = x_new, t_new
    return float(np.linalg.norm(a @ x - b))


def kkt_violation(a, b, q, mode):
    """Largest KKT violation of q, relative to max ||a_j|| ||b||: the gradient
    g = a^T (aq - b), shifted by the simplex multiplier in convex mode, must be
    >= 0 everywhere and 0 where q > 0."""
    g = a.T @ (a @ q - b)
    if mode == "convex":
        g = g - np.mean(g[q > 0])
    worst = max(-float(np.min(g)), float(np.max(np.abs(g[q > 0]), initial=0.0)))
    return worst / (float(np.max(np.linalg.norm(a, axis=0))) * float(np.linalg.norm(b)))


CASES = [pytest.param(deleted_phase_point_spaces, id="deleted-phase-point")] + [
    pytest.param(lambda m, s=seed: random_spaces(s, m), id=f"random-{seed}") for seed in range(8)
]


@pytest.mark.parametrize("make", CASES)
def test_conic_residual_matches_bvls(make):
    state, va, vb = make("conic")
    a, b = design(state, va, vb)
    reference = lsq_linear(a, b, bounds=(0, np.inf), method="bvls")
    expected = float(np.linalg.norm(a @ np.clip(reference.x, 0.0, None) - b))
    assert abs(separable_feasible(state, va, vb).residual - expected) <= 1e-9


@pytest.mark.parametrize("make", CASES)
def test_convex_weights_on_the_simplex_at_the_oracle_residual(make):
    state, va, vb = make("convex")
    result = separable_feasible(state, va, vb)
    assert np.all(result.weights >= 0)
    assert abs(float(np.sum(result.weights)) - 1.0) <= 1e-12
    assert result.constraint_violation <= 1e-12
    assert abs(result.residual - simplex_oracle(*design(state, va, vb))) <= 1e-9


@pytest.mark.parametrize("mode", ["conic", "convex"])
@pytest.mark.parametrize("make", CASES)
def test_returned_point_meets_kkt(make, mode):
    state, va, vb = make(mode)
    a, b = design(state, va, vb)
    q = separable_feasible(state, va, vb).weights.reshape(-1)
    assert kkt_violation(a, b, q, mode) <= 1e-9


@pytest.mark.parametrize("mode", ["conic", "convex"])
def test_kkt_check_detects_a_point_that_stopped_short(mode):
    state, va, vb = deleted_phase_point_spaces(mode)
    a, b = design(state, va, vb)
    uniform = np.full(a.shape[1], 1.0 / a.shape[1])
    assert kkt_violation(a, b, uniform, mode) > 1e-3
