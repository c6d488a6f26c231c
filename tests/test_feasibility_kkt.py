"""The separable fit verifies the optimality of scipy's nnls point and
re-solves with bounded-variable least squares when it is not optimal."""

import numpy as np
import pytest
from scipy.optimize import lsq_linear

import minsep.feasibility as feasibility
from minsep.bases import phase_point_operators
from minsep.feasibility import StateSpace, separable_feasible
from minsep.states import bell_state, random_density


def deleted_phase_point_spaces(mode):
    """Phase-point spaces with one A-side generator removed: infeasible, so
    the optimal residual is strictly positive."""
    ws = phase_point_operators().ops
    va = StateSpace(2, ws[1:], mode)
    vb = StateSpace(2, tuple(w.T for w in ws), mode)
    return va, vb


def bvls_residual(state, va, vb, mode):
    """Independent reference: the fit built from np.kron columns, solved by BVLS."""
    cols = np.array([np.kron(a, b).reshape(-1) for a in va.generators for b in vb.generators]).T
    design = np.vstack([cols.real, cols.imag])
    target = np.concatenate([state.rho.reshape(-1).real, state.rho.reshape(-1).imag])
    if mode == "convex":
        w = 1e3 * float(np.max(np.linalg.norm(design, axis=0)))
        design = np.vstack([design, np.full((1, cols.shape[1]), w)])
        target = np.concatenate([target, [w]])
    q = np.clip(lsq_linear(design, target, bounds=(0, np.inf), method="bvls").x, 0.0, None)
    return float(np.linalg.norm(state.rho.reshape(-1) - cols @ q))


def uniform_nnls(design, target, maxiter=None):
    """A stand-in for nnls that stops at a feasible but non-optimal point."""
    q = np.full(design.shape[1], 1.0 / design.shape[1])
    return q, float(np.linalg.norm(design @ q - target))


@pytest.mark.parametrize("mode", ["conic", "convex"])
def test_non_optimal_nnls_point_is_re_solved(monkeypatch, mode):
    state = bell_state()
    va, vb = deleted_phase_point_spaces(mode)
    reference = bvls_residual(state, va, vb, mode)
    monkeypatch.setattr(feasibility, "nnls", uniform_nnls)
    result = separable_feasible(state, va, vb)
    assert abs(result.residual - reference) <= 1e-9
    assert np.all(result.weights >= 0)


def test_optimal_nnls_point_is_kept(monkeypatch):
    def no_bvls(*args, **kwargs):
        raise AssertionError("BVLS re-solve ran on an optimal nnls point")

    monkeypatch.setattr(feasibility, "lsq_linear", no_bvls)
    state = random_density(4, 2, 2)
    for mode in ("conic", "convex"):
        va, vb = deleted_phase_point_spaces(mode)
        assert separable_feasible(state, va, vb).residual > 0
