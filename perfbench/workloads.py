"""Seeded inputs, items and correctness oracles of the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` here, in the
benchmark, so the inputs stay the same when the program changes.  An item
is one unit of measured work: ``run(tracer)`` makes the timed calls into
minsep and returns their outputs; ``check(outputs)`` is the correctness
oracle, run outside the timed region, and returns a list of problems.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from minsep import (
    cli,
    crossnorm,
    decompositions,
    feasibility,
    lhv,
    schmidt,
    serialize,
    states,
    transport,
)
from minsep.bases import phase_point_operators
from minsep.tolerances import ATOL, FEAS_TOL, INFEAS_THRESHOLD, RECON_TOL

LAYERS = ("schmidt", "transport", "decompositions", "crossnorm", "feasibility", "lhv", "serialize", "cli")

# The public functions the benchmark calls, one span each in a traced run.
FUNCTIONS = (
    "schmidt.operator_schmidt",
    "transport.check_condition_a",
    "transport.build_maps",
    "transport.check_condition_b",
    "transport.construct_alignment",
    "transport.build_w_basis",
    "transport.transported_decomposition",
    "transport.transported_cost",
    "transport.minimal_quantum_spaces",
    "decompositions.cross_norm_decomposition",
    "decompositions.equal_norm_decomposition",
    "decompositions.hermitian_decomposition",
    "decompositions.equal_norm_check",
    "crossnorm.decomposition_cost",
    "feasibility.separable_feasible",
    "feasibility.deletion_minimality",
    "feasibility.quantum_augmented_feasible",
    "lhv.build_lhv",
    "lhv.povm_scan",
    "serialize.encode_decomposition",
    "serialize.decode_decomposition",
    "serialize.dumps",
    "cli.main",
)

MAGIC_THRESHOLD = math.sqrt(3.0) - 1.0
BORN_CHECK_TOL = 1e-9


@dataclass
class Item:
    id: str
    group: str
    run: Callable
    check: Callable


@dataclass
class Context:
    """Where a run may write, and what its child processes used."""

    root: Path
    workdir: Path
    inprocess: bool = False
    child_peak_kb: int = 0
    reference: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def _sub_seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


def haar_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diagonal(r))


def near_max_entangled(rng, d: int) -> states.BipartiteState:
    """(U tensor V) sum_i sqrt(lam_i) |ii> with lam within 20% of uniform.

    min lam >= (0.8 / 1.2) / d > 1 / d^2 for d >= 2, so both conditions of
    the transported construction hold.
    """
    lam = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, d)
    lam /= lam.sum()
    psi = haar_unitary(rng, d) @ np.diag(np.sqrt(lam)) @ haar_unitary(rng, d).T
    v = psi.reshape(-1)
    return states.BipartiteState(d, d, np.outer(v, v.conj()))


def random_density(rng, dA: int, dB: int) -> states.BipartiteState:
    """Full-rank G G^dag / tr(G G^dag), the construction of minsep's fixture."""
    n = dA * dB
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return states.BipartiteState(dA, dB, rho / np.trace(rho).real)


def sampled_space(rng, d: int, count: int, mode: str) -> feasibility.StateSpace:
    """The maximally mixed state plus ``count`` Haar pure-state projectors."""
    gens = [np.eye(d, dtype=complex) / d]
    for _ in range(count):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        gens.append(np.outer(v, v.conj()))
    return feasibility.StateSpace(d, tuple(gens), mode)


def transported_parts(st: states.BipartiteState):
    """Maps, rotated basis and transported decomposition of a state that
    passes both conditions (set-up work, not timed)."""
    os_ = schmidt.operator_schmidt(st)
    maps = transport.build_maps(os_)
    alignment = transport.construct_alignment(transport.check_condition_a(os_))
    w = transport.build_w_basis(maps, alignment)
    return maps, w, transport.transported_decomposition(maps, w)


def hermitian_equal_norm(rng, st: states.BipartiteState):
    os_ = schmidt.operator_schmidt(st)
    return decompositions.hermitian_decomposition(
        os_, crossnorm.DiagonalScaling.identity(os_.D), haar_orthogonal(rng, os_.D), 1.0
    )


# --------------------------------------------------------------- oracles


def recon_residual(p, A, B, rho) -> float:
    """||sum_k p_k A_k tensor B_k - rho|| / ||rho||, computed independently."""
    A = np.asarray(A)
    B = np.asarray(B)
    n = A.shape[1] * B.shape[1]
    m = np.einsum("k,kij,kab->iajb", np.asarray(p, dtype=float), A, B).reshape(n, n)
    return float(np.linalg.norm(m - rho) / np.linalg.norm(rho))


def _check_recon(problems, label, p, A, B, rho):
    r = recon_residual(p, A, B, rho)
    if not r <= RECON_TOL:
        problems.append(f"{label} reconstruction residual {r:.3e} > {RECON_TOL:.0e}")


def lhv_failure_justified(dec, povm_a, povm_b) -> bool:
    """Whether some term rules out a classical model for this POVM pair: a
    complex or negative response, a nonpositive trace, or a traceless
    operator (which either responds, or is dropped and leaves the verdict to
    the Born comparison)."""
    for a, b in zip(dec.A, dec.B):
        resps = [np.array([np.trace(op @ e) for e in povm.effects]) for op, povm in ((a, povm_a), (b, povm_b))]
        if any(np.max(np.abs(r.imag)) > ATOL for r in resps):
            return True
        traces = [r.real.sum() for r in resps]
        if any(abs(t) <= ATOL for t in traces):
            return True
        if any(r.real.min() < -ATOL or t <= ATOL for r, t in zip(resps, traces)):
            return True
    return False


def born_deviation(model, rho, povm_a, povm_b) -> float:
    worst = 0.0
    for i, m in enumerate(povm_a.effects):
        for j, n in enumerate(povm_b.effects):
            born = np.trace(rho @ np.kron(m, n)).real
            model_p = float(np.sum(model.hidden_weights * model.response_a[:, i] * model.response_b[:, j]))
            worst = max(worst, abs(model_p - born))
    return worst


# -------------------------------------------------------------- construct

# Items per pass.  Sorted by time the groups run rd < d2 < d3 < d4 < d6 < d8,
# at 0-25%, 25-40%, 40-70%, 70-85% (with bell-pp), 85-95% and 95-100% of the
# items, so p50 falls inside d3 and p90 inside d6, away from a boundary.
CONSTRUCT_MIX = {
    "rd": [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)],
    "me": {2: 3, 3: 6, 4: 2, 6: 2, 8: 1},
    "bell-pp": 1,
}
CONSTRUCT_TINY = {"rd": [(2, 3), (2, 2)], "me": {2: 1, 3: 1}, "bell-pp": 1}


def _pauli_pairs():
    povms = {axis: states.projective_povm(axis) for axis in "xyz"}
    return [(f"{a}|{b}", povms[a], povms[b]) for a in "xyz" for b in "xyz"]


def _construct_item(item_id, group, rng, st, lhv_dec=None, expect_a=True):
    D = min(st.dA, st.dB) ** 2
    k = 2
    params = {
        "R": crossnorm.DiagonalScaling(np.exp(0.3 * rng.normal(size=D))),
        "iso": haar_unitary(rng, D + k)[:D, :],
        "p": rng.uniform(0.5, 1.5, D + k),
        "c": rng.uniform(0.5, 2.0, D + k),
        "U": haar_unitary(rng, D),
        "O": haar_orthogonal(rng, D),
        "c_en": float(rng.uniform(0.5, 2.0)),
        "t_seed": _sub_seed(rng),
    }
    qubit = expect_a and st.dA == st.dB == 2
    pairs = _pauli_pairs() if qubit else []

    def run(tr):
        out = {}
        os_ = out["os"] = tr.call("schmidt.operator_schmidt", schmidt.operator_schmidt, st)
        try:
            cond_a = tr.call("transport.check_condition_a", transport.check_condition_a, os_)
        except ValueError as exc:  # unequal local dimensions
            cond_a = exc
        out["cond_a"] = cond_a
        if not isinstance(cond_a, ValueError) and cond_a.passed:
            maps = tr.call("transport.build_maps", transport.build_maps, os_)
            out["cond_b"] = tr.call("transport.check_condition_b", transport.check_condition_b, maps)
            out["align"] = tr.call("transport.construct_alignment", transport.construct_alignment, cond_a)
            out["align_seeded"] = tr.call(
                "transport.construct_alignment", transport.construct_alignment, cond_a, seed=params["t_seed"]
            )
            w = tr.call("transport.build_w_basis", transport.build_w_basis, maps, out["align"])
            dec = out["transported"] = tr.call(
                "transport.transported_decomposition", transport.transported_decomposition, maps, w
            )
            out["t_cost"] = tr.call("transport.transported_cost", transport.transported_cost, dec, maps)
            out["spaces"] = tr.call(
                "transport.minimal_quantum_spaces", transport.minimal_quantum_spaces, maps, w
            )
        R = params["R"]
        out["cn"] = tr.call(
            "decompositions.cross_norm_decomposition", decompositions.cross_norm_decomposition,
            os_, R, params["iso"], params["p"], params["c"],
        )
        out["en"] = tr.call(
            "decompositions.equal_norm_decomposition", decompositions.equal_norm_decomposition,
            os_, R, params["U"], params["c_en"],
        )
        out["herm"] = tr.call(
            "decompositions.hermitian_decomposition", decompositions.hermitian_decomposition,
            os_, R, params["O"], params["c_en"],
        )
        out["cost"] = tr.call("crossnorm.decomposition_cost", crossnorm.decomposition_cost, out["cn"], R)
        out["en_check"] = tr.call("decompositions.equal_norm_check", decompositions.equal_norm_check, out["en"], R)
        if qubit:
            target = lhv_dec if lhv_dec is not None else out["transported"]
            models = []
            for _, pa, pb in pairs:
                try:
                    models.append(tr.call("lhv.build_lhv", lhv.build_lhv, target, pa, pb))
                except lhv.LhvConstructionError:
                    models.append(None)
            out["models"] = models
            out["scan_pauli"] = tr.call("lhv.povm_scan", lhv.povm_scan, target, "pauli")
            out["scan_magic"] = tr.call("lhv.povm_scan", lhv.povm_scan, target, "magic")
        return out

    def check(out):
        problems = []
        rho = st.rho
        os_ = out["os"]
        if os_.D != D:
            problems.append(f"Schmidt rank {os_.D}, expected {D}")
        _check_recon(problems, "schmidt", os_.s, os_.X, os_.Y, rho)
        cond_a = out["cond_a"]
        if st.dA != st.dB:
            if not isinstance(cond_a, ValueError):
                problems.append("condition A did not reject unequal dimensions")
        elif isinstance(cond_a, ValueError) or cond_a.passed != expect_a:
            problems.append(f"condition A outcome differs from expected {expect_a}")
        if expect_a and "transported" in out:
            d = st.dA
            if not out["cond_b"].passed:
                problems.append("condition B failed on a state with min s > 1/d^2")
            for key in ("align", "align_seeded"):
                t = out[key].T
                if np.linalg.norm(t @ cond_a.e - out[key].g) > 1e-10 or np.max(np.abs(t @ t.T - np.eye(len(t)))) > 1e-9:
                    problems.append(f"{key} is not an orthogonal map of e to g")
            dec = out["transported"]
            _check_recon(problems, "transported", dec.p, dec.A, dec.B, rho)
            traces = [abs(np.trace(x) - 1.0) for x in dec.A + dec.B]
            if max(traces) > 1e-9:
                problems.append(f"transported operators off unit trace by {max(traces):.3e}")
            if abs(out["t_cost"] - d) > ATOL * d:
                problems.append(f"transported cost {out['t_cost']!r} != d = {d}")
            if any(len(space) != d * d for space in out["spaces"]):
                problems.append("minimal quantum spaces do not have d^2 generators")
        for key in ("cn", "en", "herm"):
            dec = out[key]
            _check_recon(problems, key, dec.p, dec.A, dec.B, rho)
        lam = os_.lambda_total
        if abs(out["cost"] - lam) > 1e-9 * max(1.0, lam):
            problems.append(f"cross-norm cost {out['cost']!r} != sum of Schmidt coefficients {lam!r}")
        if not out["en_check"].passed:
            problems.append("equal-norm check failed on the equal-norm family")
        herm = out["herm"]
        if any(np.max(np.abs(x - x.conj().T)) > ATOL for x in herm.A + herm.B):
            problems.append("Hermitian family produced a non-Hermitian operator")
        if "models" in out:
            target = lhv_dec if lhv_dec is not None else out["transported"]
            scan_rows = {row.label: row.success for row in out["scan_pauli"].rows}
            for (label, pa, pb), model in zip(pairs, out["models"]):
                if model is None:
                    if not lhv_failure_justified(target, pa, pb):
                        problems.append(f"build_lhv {label} failed without a violating term")
                elif born_deviation(model, rho, pa, pb) > BORN_CHECK_TOL:
                    problems.append(f"LHV model {label} misses the Born probabilities")
                if scan_rows.get(label) != (model is not None):
                    problems.append(f"Pauli scan row {label} disagrees with build_lhv")
            threshold = out["scan_magic"].threshold
            if lhv_dec is not None:
                if abs(threshold - MAGIC_THRESHOLD) > 1e-6:
                    problems.append(f"phase-point magic threshold {threshold!r} != sqrt(3) - 1")
            elif not 0.0 <= threshold <= 1.0:
                problems.append(f"magic threshold {threshold!r} outside [0, 1]")
        return problems

    return Item(item_id, group, run, check)


def construct_items(rng, tiny, ctx):
    mix = CONSTRUCT_TINY if tiny else CONSTRUCT_MIX
    items = []
    for dA, dB in mix["rd"]:
        group = f"rd-{dA}x{dB}"
        items.append(_construct_item(group, group, rng, random_density(rng, dA, dB), expect_a=False))
    for d, count in mix["me"].items():
        for i in range(count):
            items.append(_construct_item(f"me-d{d}/{i}", f"me-d{d}", rng, near_max_entangled(rng, d)))
    ws = phase_point_operators().ops
    phase_point = decompositions.SeparableDecomposition(np.full(4, 0.25), ws, tuple(w.T for w in ws))
    for i in range(mix["bell-pp"]):
        items.append(_construct_item(f"bell-pp/{i}", "bell-pp", rng, states.bell_state(), lhv_dec=phase_point))
    return items


# ---------------------------------------------------------------- certify

# (kind, dims, mode, count) per pass.  Transported decompositions of
# near-maximally-entangled states and Hermitian equal-norm decompositions
# of random densities; d = 5 (13-15 s a verdict) stays out.  Sorted by time
# the 2x3 items fill the first quarter of a pass and the twelve 3x3
# Hermitian items the next 37%, so p50 is an order statistic of that one
# group rather than of whichever group sits at the median for a given seed.
CERTIFY_MIX = [
    ("herm", (2, 3), "convex", 4), ("herm", (2, 3), "conic", 4),
    ("herm", (3, 3), "convex", 6), ("herm", (3, 3), "conic", 6),
    ("transported", (3, 3), "convex", 2), ("transported", (3, 3), "conic", 2),
    ("herm", (3, 4), "convex", 2), ("herm", (3, 4), "conic", 2),
    ("transported", (4, 4), "convex", 1), ("transported", (4, 4), "conic", 1),
    ("herm", (4, 4), "convex", 1), ("herm", (4, 4), "conic", 1),
]
CERTIFY_TINY = [("herm", (2, 3), "convex", 1), ("transported", (2, 2), "conic", 1)]


def _certify_item(item_id, group, st, dec, mode):
    va = feasibility.StateSpace(st.dA, dec.A, mode)
    vb = feasibility.StateSpace(st.dB, dec.B, mode)

    def run(tr):
        return tr.call("feasibility.deletion_minimality", feasibility.deletion_minimality, st, va, vb)

    def check(report):
        problems = []
        if len(report.records) != len(va) + len(vb):
            problems.append(f"{len(report.records)} deletion records for {len(va) + len(vb)} generators")
        worst = min(r.residual for r in report.records)
        if not report.passed or worst < INFEAS_THRESHOLD:
            problems.append(f"verdict not passed (smallest deletion residual {worst:.3e})")
        return problems

    return Item(item_id, group, run, check)


def certify_items(rng, tiny, ctx):
    items = []
    for kind, (dA, dB), mode, count in CERTIFY_TINY if tiny else CERTIFY_MIX:
        group = f"{kind}-{dA}x{dB}-{mode}"
        for i in range(count):
            if kind == "transported":
                st = near_max_entangled(rng, dA)
                dec = transported_parts(st)[2]
            else:
                st = random_density(rng, dA, dB)
                dec = hermitian_equal_norm(rng, st)
            items.append(_certify_item(f"{group}/{i}", group, st, dec, mode))
    return items


# --------------------------------------------------------------- hull-fit

# Fits the least-squares bound cannot decide: full generator sets and
# quantum-augmented spaces (feasible), and sampled separable hulls against
# the maximally entangled state (infeasible, residual about 0.75 to 0.9).
HULL_MIX = {
    "full": [(3, "convex"), (3, "conic"), (4, "convex"), (4, "conic"), (5, "convex")],
    "quantum": [(3, "convex"), (3, "conic"), (4, "convex"), (5, "convex")],
    "budgets": (0, 8, 16),
    "sampled": [(3, 9), (3, 13), (3, 18), (4, 16), (4, 20)],
}
HULL_TINY = {"full": [(2, "convex")], "quantum": [(2, "convex")], "budgets": (0, 4), "sampled": [(2, 4)]}


def _fit_item(item_id, group, call, expect_feasible, min_residual):
    def check(result):
        if result.feasible != expect_feasible:
            return [f"fit feasible={result.feasible}, expected {expect_feasible} (residual {result.residual:.3e})"]
        if expect_feasible and not result.residual <= FEAS_TOL:
            return [f"feasible fit with residual {result.residual:.3e}"]
        if not expect_feasible and result.residual < min_residual:
            return [f"infeasible fit residual {result.residual:.6f} below its lower bound {min_residual:.6f}"]
        return []

    return Item(item_id, group, call, check)


def hull_fit_items(rng, tiny, ctx):
    mix = HULL_TINY if tiny else HULL_MIX
    items = []
    parts = {}
    for d in sorted({d for d, _ in mix["full"] + mix["quantum"]}):
        st = near_max_entangled(rng, d)
        parts[d] = (st,) + transported_parts(st)
    for d, mode in mix["full"]:
        st, _, _, dec = parts[d]
        va = feasibility.StateSpace(d, dec.A, mode)
        vb = feasibility.StateSpace(d, dec.B, mode)
        items.append(_fit_item(
            f"full-d{d}-{mode}", f"full-d{d}-{mode}",
            lambda tr, st=st, va=va, vb=vb: tr.call(
                "feasibility.separable_feasible", feasibility.separable_feasible, st, va, vb),
            True, 0.0,
        ))
    for d, mode in mix["quantum"]:
        st, maps, w, _ = parts[d]
        va, vb = transport.minimal_quantum_spaces(maps, w, mode)
        for budget in mix["budgets"]:
            group = f"quantum-d{d}-{mode}-b{budget}"
            items.append(_fit_item(
                group, group,
                lambda tr, st=st, va=va, vb=vb, b=budget, s=_sub_seed(rng): tr.call(
                    "feasibility.quantum_augmented_feasible", feasibility.quantum_augmented_feasible,
                    st, va, vb, b, s),
                True, 0.0,
            ))
    for d, count in mix["sampled"]:
        target = states.max_entangled(d)
        for mode in ("convex", "conic"):
            va = sampled_space(rng, d, count, mode)
            vb = sampled_space(rng, d, count, mode)
            # A convex fit is a separable state sigma, and <Phi|sigma|Phi> <= 1/d.
            bound = 1.0 - 1.0 / d - 1e-6 if mode == "convex" else INFEAS_THRESHOLD
            group = f"sampled-d{d}-n{count}-{mode}"
            items.append(_fit_item(
                group, group,
                lambda tr, t=target, va=va, vb=vb: tr.call(
                    "feasibility.separable_feasible", feasibility.separable_feasible, t, va, vb),
                False, bound,
            ))
    return items


# -------------------------------------------------------------- cli-chain

# The README chain extended.  lhv and scan need qubit POVMs; the
# transported construction and the conditions need equal local dimensions.
# bell runs every command.  The larger states run only the decompositions
# and the minimality check, whose work grows fastest with d: the other
# commands cost a cold start that bell already times, and two passes of the
# chain must fit in a run.
CHAIN_BELL = (
    "schmidt", "crossnorm", "decompose-1", "decompose-2", "decompose-3", "verify-minimal",
    "conditions", "lhv-3", "lhv-2", "scan-pauli", "scan-magic",
)
CHAIN_SQUARE = ("decompose-2", "decompose-3", "verify-minimal")
CHAIN_RECT = ("decompose-1", "decompose-2", "verify-minimal")


def _cli_argv(command, state, seed, path):
    """argv of one chain command; ``path(name)`` locates a report file."""
    if command == "decompose-1":
        return ["decompose", "--theorem", "1", "--state", state, "--unitary", "seed", "--R", "sqrtS", "--seed", str(seed)]
    if command == "decompose-2":
        return ["decompose", "--theorem", "2", "--state", state, "--unitary", "identity"]
    if command == "decompose-3":
        return ["decompose", "--theorem", "3", "--state", state]
    if command == "verify-minimal":
        return ["verify-minimal", "--state", state, "--decomposition", path("decompose-2")]
    if command in ("lhv-2", "lhv-3"):
        return ["lhv", "--decomposition", path("decompose-" + command[-1]), "--povm-a", "z", "--povm-b", "z"]
    if command.startswith("scan-"):
        return ["scan", "--decomposition", path("decompose-3"), "--family", command[5:]]
    if command in ("crossnorm", "conditions"):
        return [command, "--state", state, "--seed", str(seed)]
    return [command, "--state", state]


def _spawn_cli(ctx, argv, err_path):
    """Run ``python -m minsep.cli`` cold; returns (exit status, peak RSS in kB)."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-m", "minsep.cli", *argv],
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ],
    )
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def _roundtrip(tr, text, decomposition):
    """Re-decode and re-encode a report in process; returns the new text."""
    report = json.loads(text)
    if decomposition:
        dec = tr.call("serialize.decode_decomposition", serialize.decode_decomposition, report["result"])
        enc = tr.call("serialize.encode_decomposition", serialize.encode_decomposition, dec)
        report["result"] = dict(report["result"], **enc)
    return tr.call("serialize.dumps", serialize.dumps, report)


def _cli_item(ctx, tag, state, command, seed):
    def path(name):
        return str(ctx.workdir / f"{tag}.{name}.json")

    argv = _cli_argv(command, state, seed, path) + ["--out", path(command)]
    expected = 2 if command == "lhv-2" else 0
    item_id = f"{tag}/{command}"

    def run(tr):
        out_path = Path(path(command))
        out_path.unlink(missing_ok=True)
        if ctx.inprocess:
            status = tr.call("cli.main", cli.main, argv)
            text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
            again = None if text is None else _roundtrip(tr, text, command.startswith("decompose"))
            return status, text, again, None
        err_path = ctx.workdir / "stderr.txt"
        status, peak_kb = _spawn_cli(ctx, argv, err_path)
        ctx.child_peak_kb = max(ctx.child_peak_kb, peak_kb)
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        err = err_path.read_text(encoding="utf-8", errors="replace").strip() if status != expected else None
        return status, text, text, err

    def check(out):
        status, text, again, err = out
        problems = []
        if status != expected:
            problems.append(f"exit status {status}, expected {expected}" + (f": {err}" if err else ""))
        if text is None:
            return problems + ["no report written"]
        if again != text:
            problems.append("report changed on re-decoding and re-encoding")
        first = ctx.reference.setdefault(item_id, text)
        if text != first:
            problems.append("report differs from the run's first pass")
        return problems

    return Item(item_id, argv[0], run, check)


def cli_chain_items(rng, tiny, ctx):
    rd_seed = _sub_seed(rng) % 100000
    cmd_seed = _sub_seed(rng) % 100000
    chains = [("bell", "bell", CHAIN_BELL)]
    if not tiny:
        chains += [
            ("me3", "max-entangled:3", CHAIN_SQUARE),
            ("me4", "max-entangled:4", CHAIN_SQUARE),
            ("rd23", f"random:{rd_seed}:2:3", CHAIN_RECT),
        ]
    return [_cli_item(ctx, tag, state, command, cmd_seed) for tag, state, chain in chains for command in chain]


ITEM_MAKERS = {
    "construct": construct_items,
    "certify": certify_items,
    "hull-fit": hull_fit_items,
    "cli-chain": cli_chain_items,
}


def make_items(workload: str, seed: int, tiny: bool, ctx: Context) -> list[Item]:
    """The workload's fixed input set, drawn from ``seed``, in pass order.

    In-process items are shuffled so that each group's samples spread over
    the pass and a slow spell on a shared host does not hit one group only;
    cli-chain keeps its order because each report feeds the next command.
    """
    rng = np.random.default_rng(seed)
    items = ITEM_MAKERS[workload](rng, tiny, ctx)
    if workload != "cli-chain":
        items = [items[i] for i in rng.permutation(len(items))]
    return items
