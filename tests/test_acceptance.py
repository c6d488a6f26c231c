"""Acceptance suite: one test per repository-level acceptance criterion.

Each test prints a single ``ACCEPTANCE n PASS/FAIL`` line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance.  Criteria
are exact identities or frozen-seed properties; everything runs at desk
scale in well under a minute.
"""

import json

import numpy as np
import pytest

from conftest import apply_map, proportionality_violation, random_mixed_decomposition
from minsep import serialize
from minsep.bases import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, phase_point_operators
from minsep.cli import main
from minsep.crossnorm import DiagonalScaling, cross_norm_value, decomposition_cost
from minsep.decompositions import (
    SeparableDecomposition,
    cross_norm_decomposition,
    equal_norm_decomposition,
    random_unitary,
)
from minsep.feasibility import StateSpace, deletion_minimality
from minsep.lhv import LhvConstructionError, born_probability, build_lhv, lhv_probability
from minsep.schmidt import operator_schmidt
from minsep.states import BipartiteState, bell_state, projective_povm, random_density, random_pure_state
from minsep.transport import (
    build_maps,
    build_w_basis,
    check_condition_a,
    check_condition_b,
    construct_alignment,
    transported_cost,
    transported_decomposition,
)


def announce(num: int, description: str, passed: bool):
    print(f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num}: {description}"


def pure_theta(theta):
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(theta), np.sin(theta)
    return BipartiteState(2, 2, np.outer(psi, psi.conj()))


def test_criterion_01_bell_schmidt_spectrum():
    os = operator_schmidt(bell_state())
    ok = (
        os.D == 4
        and np.max(np.abs(np.asarray(os.s) - 0.5)) <= 1e-10
        and abs(os.lambda_total - 2.0) <= 1e-10
    )
    announce(1, "Bell operator-Schmidt spectrum (1/2, 1/2, 1/2, 1/2), total 2", ok)


def test_criterion_02_cross_norm_attainment():
    dims = [(2, 2), (2, 3), (3, 3)]
    ok = True
    for i in range(20):
        dA, dB = dims[i % 3]
        state = random_density(500 + i, dA, dB)
        os = operator_schmidt(state)
        value = cross_norm_value(os)
        for j in range(5):
            rng = np.random.default_rng(37 * i + j)
            scaling = DiagonalScaling(np.exp(rng.normal(0.0, 0.4, os.D)))
            n = os.D + (j % 2)  # alternate square unitaries and wide isometries
            u = random_unitary(n, 91 * i + j)[: os.D]
            p = rng.uniform(0.5, 1.5, n)
            p /= p.sum()
            c = rng.uniform(0.5, 2.0, n)
            dec = cross_norm_decomposition(os, scaling, u, p, c)
            residual = np.linalg.norm(dec.reconstruct() - state.rho)
            cost_dev = abs(decomposition_cost(dec, scaling) - value)
            ok = ok and residual <= 1e-9 and cost_dev <= 1e-9
    announce(2, "cross-norm family reconstructs and attains sum(s) (100 cases)", ok)


def test_criterion_03_lower_bound():
    ok = True
    violating = 0
    for seed in range(50):
        state = random_density(800 + seed, 2, 2)
        os = operator_schmidt(state)
        dec = random_mixed_decomposition(os, seed)
        rng = np.random.default_rng(seed)
        scaling = DiagonalScaling(np.exp(rng.normal(0.0, 0.4, os.D)))
        cost = decomposition_cost(dec, scaling)
        value = cross_norm_value(os)
        ok = ok and cost >= value - 1e-9
        if proportionality_violation(dec, scaling) > 1e-3:
            violating += 1
            ok = ok and cost > value + 1e-6
    ok = ok and violating >= 40  # the strict clause must actually fire
    announce(3, "cost lower bound and strict excess off the optimal family", ok)


def test_criterion_04_equal_norm_weights():
    ok = True
    for seed in range(20):
        state = random_density(900 + seed, 2, 2)
        os = operator_schmidt(state)
        rng = np.random.default_rng(seed)
        scaling = DiagonalScaling(np.exp(rng.normal(0.0, 0.4, os.D)))
        u = random_unitary(os.D, 600 + seed)
        c = float(rng.uniform(0.5, 2.0))
        dec = equal_norm_decomposition(os, scaling, u, c)
        w_a = np.array([np.linalg.norm(scaling.r * a) ** 2 for a in dec.a_coeff])
        w_b = np.array([np.linalg.norm(b / scaling.r) ** 2 for b in dec.b_coeff])
        expected_p = np.array(
            [sum(abs(u[i, k]) ** 2 * os.s[i] for i in range(os.D)) for k in range(os.D)]
        ) / os.lambda_total
        ds = np.abs(u) ** 2
        ok = ok and np.max(w_a) - np.min(w_a) <= 1e-9
        ok = ok and np.max(w_b) - np.min(w_b) <= 1e-9
        ok = ok and np.max(np.abs(np.asarray(dec.p) - expected_p)) <= 1e-12
        ok = ok and np.max(np.abs(ds.sum(axis=0) - 1.0)) <= 1e-10
        ok = ok and np.max(np.abs(ds.sum(axis=1) - 1.0)) <= 1e-10
    announce(4, "equal-norm construction: constant norms, exact weights, doubly stochastic", ok)


def test_criterion_05_minimality_by_deletion():
    ok = True
    bell = bell_state()
    pauli_a = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    pauli_b = (PAULI_I, PAULI_X, PAULI_Y.T, PAULI_Z)
    ws = phase_point_operators().ops
    frames = [
        (pauli_a, pauli_b),
        (ws, tuple(w.T for w in ws)),
    ]
    for gens_a, gens_b in frames:
        report = deletion_minimality(
            bell, StateSpace(2, gens_a, "convex"), StateSpace(2, gens_b, "convex")
        )
        ok = ok and report.passed and all(r.residual >= 1e-3 for r in report.records)
    for seed in range(10):
        state = random_density(700 + seed, 2, 2)
        os = operator_schmidt(state)
        dec = equal_norm_decomposition(
            os, DiagonalScaling.identity(os.D), random_unitary(os.D, seed), 1.0
        )
        report = deletion_minimality(
            state, StateSpace(2, dec.A, "convex"), StateSpace(2, dec.B, "convex")
        )
        ok = ok and report.passed and all(r.residual >= 1e-3 for r in report.records)
    announce(5, "every single-generator deletion is macroscopically infeasible", ok)


def test_criterion_06_transported_pipeline_on_bell():
    os = operator_schmidt(bell_state())
    cond_a = check_condition_a(os)
    maps = build_maps(os)
    cond_b = check_condition_b(maps)
    ok = cond_a.passed and cond_b.passed
    w = build_w_basis(maps, construct_alignment(cond_a))
    gram = np.array([[np.trace(a.conj().T @ b) for b in w.ops] for a in w.ops])
    ok = ok and np.max(np.abs(gram - 2 * np.eye(4))) <= 1e-10
    # The terms are the images F_A W_k and F_B W_k^T.
    dec = transported_decomposition(maps, w)
    traces = [abs(np.trace(x) - 1.0) for x in dec.A + dec.B]
    ok = ok and max(traces) <= 1e-10
    ok = ok and np.linalg.norm(dec.reconstruct() - bell_state().rho) <= 1e-10
    ok = ok and abs(transported_cost(dec, maps) - 2.0) <= 1e-9
    norms = [abs(np.linalg.norm(apply_map(maps.inv_a, a)) - np.sqrt(2)) for a in dec.A]
    norms += [abs(np.linalg.norm(apply_map(maps.inv_b, b)) - np.sqrt(2)) for b in dec.B]
    ok = ok and max(norms) <= 1e-10
    announce(6, "transported pipeline on Bell: conditions, W basis, cost, norms", ok)


def test_criterion_07_condition_b_threshold():
    def min_s(theta):
        return float(np.min(operator_schmidt(pure_theta(theta)).s))

    def passes(theta):
        maps = build_maps(operator_schmidt(pure_theta(theta)))
        return check_condition_b(maps).passed

    ok = passes(np.pi / 4 - 0.01) and not passes(0.1)
    lo, hi = 0.1, np.pi / 4
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    boundary = 0.5 * (lo + hi)
    ok = ok and abs(boundary - np.pi / 6) <= 1e-4  # min s = sin^2(theta) = 1/4
    grid = np.linspace(0.1, np.pi / 4, 12)
    values = [min_s(t) for t in grid]
    ok = ok and all(b > a for a, b in zip(values, values[1:]))
    announce(7, "condition-B pass/fail boundary in theta located and monotone", ok)


def test_criterion_08_lhv_exactness_and_stabiliser_failure():
    ws = phase_point_operators().ops
    phase_dec = SeparableDecomposition(np.full(4, 0.25), ws, tuple(w.T for w in ws))
    ok = True
    for wa in "xyz":
        for wb in "xyz":
            pa, pb = projective_povm(wa), projective_povm(wb)
            model = build_lhv(phase_dec, pa, pb)
            rho = phase_dec.reconstruct()
            for k in range(2):
                for l in range(2):
                    dev = abs(lhv_probability(model, k, l) - born_probability(rho, pa, pb, k, l))
                    ok = ok and dev <= 1e-10
    stab = SeparableDecomposition(
        np.full(4, 0.25), (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z), (PAULI_I, PAULI_X, PAULI_Y.T, PAULI_Z)
    )
    for wa in "xyz":
        for wb in "xyz":
            with pytest.raises(LhvConstructionError):
                build_lhv(stab, projective_povm(wa), projective_povm(wb))
    announce(8, "phase-point model exact on all Pauli pairs; stabiliser frame fails all", ok)


def test_criterion_09_example_two_table():
    p0 = np.sqrt(2) * np.diag([1.0, 0.0]).astype(complex)
    p1 = np.sqrt(2) * np.diag([0.0, 1.0]).astype(complex)
    dec = SeparableDecomposition(
        np.full(4, 0.25), (p0, p1, PAULI_X, PAULI_Y), (p0, p1, PAULI_X, PAULI_Y.T)
    )
    povm = projective_povm("z")
    model = build_lhv(dec, povm, povm)
    ok = np.max(np.abs(model.hidden_weights - np.array([0.5, 0.5, 0.0, 0.0]))) <= 1e-12
    ok = ok and np.max(np.abs(model.response_a[:, 0] - np.array([1, 0, 0, 0]))) <= 1e-12
    ok = ok and np.max(np.abs(model.response_a[:, 1] - np.array([0, 1, 0, 0]))) <= 1e-12
    ok = ok and np.max(np.abs(model.response_b[:, 0] - np.array([1, 0, 0, 0]))) <= 1e-12
    ok = ok and np.max(np.abs(model.response_b[:, 1] - np.array([0, 1, 0, 0]))) <= 1e-12
    announce(9, "z-measurement model reproduces the (1/2, 1/2, 0, 0) table exactly", ok)


def test_criterion_10_trace_alignment_identity():
    ok = True
    for seed in range(20):
        state = random_pure_state(1200 + seed, 2, 2)
        os = operator_schmidt(state)
        ok = ok and os.D == 4  # Haar-random pure states are full rank almost surely
        total = sum(si * np.trace(x) * np.trace(y) for si, x, y in zip(os.s, os.X, os.Y))
        report = check_condition_a(os)
        ok = ok and abs(total - 1.0) <= 1e-9
        ok = ok and np.linalg.norm(report.e - report.f) <= 1e-9
    announce(10, "trace identity and e = f on random full-rank pure states", ok)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    ws = phase_point_operators().ops
    dec = SeparableDecomposition(np.full(4, 0.25), ws, tuple(w.T for w in ws))
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(serialize.dumps(serialize.encode_decomposition(dec)))
    commands = [
        ["schmidt", "--state", "bell"],
        ["crossnorm", "--state", "random:5:2:2", "--seed", "7"],
        ["decompose", "--theorem", "1", "--state", "random:2:2:3", "--unitary", "seed", "--seed", "4"],
        ["decompose", "--theorem", "2", "--state", "bell", "--unitary", "seed", "--seed", "4"],
        ["decompose", "--theorem", "3", "--state", "bell", "--t-seed", "2"],
        ["verify-minimal", "--state", "bell", "--decomposition", str(dec_path)],
        ["conditions", "--state", "bell"],
        ["lhv", "--decomposition", str(dec_path), "--povm-a", "z"],
        ["scan", "--decomposition", str(dec_path), "--family", "magic", "--budget", "4"],
    ]
    ok = True
    for argv in commands:
        code_1 = main(list(argv))
        first = capsys.readouterr().out
        code_2 = main(list(argv))
        second = capsys.readouterr().out
        ok = ok and first == second and code_1 == code_2 and json.loads(first)
    announce(11, "byte-identical CLI reports across repeated seeded runs", ok)
