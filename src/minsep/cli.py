"""Command line front end.

Every subcommand reads JSON (or a built-in fixture name), performs one
pipeline stage and writes a single JSON report to stdout or ``--out``.
Reports embed the tolerances used and a machine-checkable "claims" array;
the exit status is 0 when all claims pass, 2 when a verification claim
fails, and 1 on malformed input.  All randomised behaviour is a pure
function of the inputs and ``--seed``, and reports are byte-identical
across runs with identical inputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import serialize
from .crossnorm import DiagonalScaling, cross_norm_value, decomposition_cost
from .decompositions import (
    cross_norm_decomposition,
    equal_norm_check,
    equal_norm_decomposition,
    hermitian_decomposition,
    random_orthogonal,
    random_unitary,
)
from .feasibility import StateSpace, deletion_minimality, separable_feasible, weights_feasible
from .lhv import BORN_TOL, MAX_MAGIC_BUDGET, LhvConstructionError, build_lhv, povm_scan
from .schmidt import operator_schmidt, reconstruct
from .serialize import FormatError, dumps
from .states import (
    BipartiteState,
    bell_state,
    identity_povm,
    magic_povm,
    max_entangled,
    projective_povm,
    random_density,
    random_pure_state,
)
from .tolerances import ATOL, INFEAS_THRESHOLD, RANK_CUTOFF, RECON_TOL, tolerance_table
from .transport import (
    build_maps,
    build_w_basis,
    check_condition_a,
    check_condition_b,
    construct_alignment,
    transported_cost,
    transported_decomposition,
)


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit with status 1, not argparse's 2
        raise CliInputError(message)


def _claim(claim_id: str, value, tolerance: float, passed: bool | None = None) -> dict:
    """One report claim; ``passed`` defaults to ``value <= tolerance``."""
    return {
        "id": claim_id,
        "value": None if value is None else float(value),
        "tolerance": float(tolerance),
        "pass": bool(value <= tolerance if passed is None else passed),
    }


def parse_state(spec: str) -> BipartiteState:
    """A fixture name (bell | max-entangled:d | random:seed:dA:dB |
    random-pure:seed:dA:dB) or a path to a state JSON file."""
    if spec == "bell":
        return bell_state()
    if spec.startswith("max-entangled:"):
        return max_entangled(_int_field(spec.split(":")[1], "state.d"))
    if spec.startswith("random:") or spec.startswith("random-pure:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise FormatError("state", f"expected {parts[0]}:seed:dA:dB, got {spec!r}")
        seed, dA, dB = (_int_field(x, "state") for x in parts[1:])
        if seed < 0:
            raise FormatError("state", f"seed must be non-negative, got {seed}")
        maker = random_pure_state if parts[0] == "random-pure" else random_density
        return maker(seed, dA, dB)
    return serialize.decode_state(_load_wrapped(spec, "dA", "state"), "state")


def _int_field(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise FormatError(field, f"expected an integer, got {text!r}") from exc


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _load_wrapped(path: str, marker: str, field: str):
    """Load a JSON object, unwrapping the ``result`` of a CLI report.

    Lets the output of one subcommand feed the next directly: a report whose
    result carries the expected marker key is unwrapped to that result.
    """
    obj = serialize.load_json(path, field)
    if isinstance(obj, dict) and marker not in obj and isinstance(obj.get("result"), dict):
        if marker in obj["result"]:
            return obj["result"]
    return obj


def _load_decomposition(path: str):
    return serialize.decode_decomposition(_load_wrapped(path, "p", "decomposition"), "decomposition")


def parse_povm(spec: str, transpose_of=None):
    if spec in ("x", "y", "z"):
        return projective_povm(spec)
    if spec == "identity":
        return identity_povm(2)
    if spec.startswith("magic:"):
        strength = spec[len("magic:"):]
        try:
            return magic_povm(float(strength))
        except ValueError as exc:
            raise FormatError("povm", f"expected magic:<strength in (0, 1]>, got {spec!r}") from exc
    if spec == "transpose-a":
        if transpose_of is None:
            raise FormatError("povm", "transpose-a needs --povm-a")
        return transpose_of.transpose()
    return serialize.decode_povm(_load_wrapped(spec, "effects", "povm"), "povm")


def _parse_scaling(spec: str, os) -> DiagonalScaling:
    if spec == "identity":
        return DiagonalScaling.identity(os.D)
    if spec == "sqrtS":
        return DiagonalScaling.sqrt_s(os)
    return serialize.decode_scaling(serialize.load_json(spec, "R"), "R")


def _parse_unitary(spec: str, D: int, seed: int, orthogonal: bool) -> np.ndarray:
    if spec == "identity":
        return np.eye(D, dtype=complex)
    if spec == "seed":
        return (random_orthogonal(D, seed) if orthogonal else random_unitary(D, seed))
    u = serialize.decode_matrix(serialize.load_json(spec, "unitary"), "unitary")
    if u.shape[0] != D:
        raise FormatError("unitary", f"expected {D} rows, got {u.shape[0]}")
    return u


def cmd_schmidt(args) -> tuple[dict, list]:
    state = parse_state(args.state)
    os = operator_schmidt(state, rank_cutoff=args.rank_cutoff)
    residual = float(np.linalg.norm(reconstruct(os) - state.rho))
    purity_dev = abs(float(np.sum(os.s**2)) - float(np.real(np.trace(state.rho @ state.rho))))
    claims = [
        _claim("schmidt.reconstruction_residual", residual, RECON_TOL),
        _claim("schmidt.two_norm_preserved", purity_dev, ATOL),
    ]
    v = np.asarray(os.X).reshape(os.D, -1)
    gram_x = np.max(np.abs(v.conj() @ v.T - np.eye(os.D)))
    return {**serialize.encode_schmidt(os), "orthonormality_deviation": float(gram_x)}, claims


def cmd_crossnorm(args) -> tuple[dict, list]:
    if args.samples < 1:
        raise CliInputError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > MAX_MAGIC_BUDGET:  # one row per sample, kept like the magic grid
        raise CliInputError(f"--samples must be at most {MAX_MAGIC_BUDGET}, got {args.samples}")
    state = parse_state(args.state)
    os = operator_schmidt(state)
    value = cross_norm_value(os)
    rng = np.random.default_rng(args.seed)
    per_r = []
    worst = 0.0
    for _ in range(args.samples):
        r = np.exp(rng.normal(0.0, 0.5, os.D))
        scaling = DiagonalScaling(r)
        dec = cross_norm_decomposition(
            os, scaling, np.eye(os.D, dtype=complex), np.full(os.D, 1.0 / os.D), np.ones(os.D)
        )
        cost = decomposition_cost(dec, scaling)
        worst = max(worst, abs(cost - value))
        per_r.append({"r": [float(x) for x in r], "cost": float(cost)})
    claims = [_claim("crossnorm.invariant_under_R", worst, ATOL)]
    return {"value": float(value), "per_r": per_r}, claims


def _decompose_transported(args, state):
    os = operator_schmidt(state)
    cond_a = check_condition_a(os)
    if not cond_a.passed:
        raise FormatError("state", "condition A fails; no transported decomposition")
    maps = build_maps(os)
    alignment = construct_alignment(cond_a, seed=args.t_seed)
    w = build_w_basis(maps, alignment)
    dec = transported_decomposition(maps, w)
    residual = float(np.linalg.norm(dec.reconstruct() - state.rho))
    traces = [abs(complex(np.trace(a)) - 1.0) for a in dec.A]
    traces += [abs(complex(np.trace(b)) - 1.0) for b in dec.B]
    cost_dev = abs(transported_cost(dec, maps) - maps.d)
    claims = [
        _claim("decompose.reconstruction_residual", residual, RECON_TOL),
        _claim("decompose.unit_traces", max(traces), 1e-9),
        _claim("decompose.transported_cost", cost_dev, ATOL),
    ]
    result = serialize.encode_decomposition(dec)
    result["T"] = serialize.encode_matrix(alignment.T)
    return result, claims


def cmd_decompose(args) -> tuple[dict, list]:
    state = parse_state(args.state)
    if args.theorem == 3:
        return _decompose_transported(args, state)
    os = operator_schmidt(state)
    scaling = _parse_scaling(args.R, os)
    u = _parse_unitary(args.unitary, os.D, args.seed, args.orthogonal)
    if args.theorem == 1:
        n = u.shape[1]
        p = np.full(n, 1.0 / n)
        dec = cross_norm_decomposition(os, scaling, u, p, np.full(n, args.c))
    else:
        if args.orthogonal:
            dec = hermitian_decomposition(os, scaling, u.real, args.c)
        else:
            dec = equal_norm_decomposition(os, scaling, u, args.c)
    residual = float(np.linalg.norm(dec.reconstruct() - state.rho))
    cost_dev = abs(decomposition_cost(dec, scaling) - cross_norm_value(os))
    claims = [
        _claim("decompose.reconstruction_residual", residual, RECON_TOL),
        _claim("decompose.cost_attains_cross_norm", cost_dev, ATOL),
    ]
    if args.theorem == 2:
        report = equal_norm_check(dec, scaling)
        dev = max(report.max_dev_a, report.max_dev_b)
        claims.append(_claim("decompose.equal_norms", dev, ATOL, report.passed))
    return serialize.encode_decomposition(dec), claims


def cmd_verify_minimal(args) -> tuple[dict, list]:
    if not np.isfinite(args.threshold):
        raise CliInputError(f"--threshold must be finite, got {args.threshold}")
    state = parse_state(args.state)
    dec = _load_decomposition(args.decomposition)
    va = StateSpace(state.dA, dec.A, args.mode)
    vb = StateSpace(state.dB, dec.B, args.mode)
    # The decomposition's own point q_ij = p_i delta_ij certifies membership in
    # both modes; only a state it does not reconstruct needs the fit.
    baseline = weights_feasible(state, va, vb, np.diag(dec.p))
    decided_by = "decomposition"
    if not baseline.feasible:
        baseline = separable_feasible(state, va, vb)
        decided_by = "nnls"
    report = deletion_minimality(state, va, vb, threshold=args.threshold)
    min_residual = min((r.residual for r in report.records), default=float("inf"))
    claims = [_claim("verify-minimal.all_deletions_infeasible", min_residual, args.threshold, report.passed)]
    return {
        "baseline": {**serialize.plain(baseline), "decided_by": decided_by},
        "deletions": serialize.plain(report.records),
        "passed": report.passed,
    }, claims


def cmd_conditions(args) -> tuple[dict, list]:
    state = parse_state(args.state)
    os = operator_schmidt(state)
    if state.dA != state.dB or os.D != state.dA**2:
        failed = {"passed": False, "reason": "operator-Schmidt rank deficient"}
        claims = [_claim("conditions.a", 1.0, ATOL, False), _claim("conditions.b", 1.0, ATOL, False)]
        return {"condition_a": failed, "condition_b": failed}, claims
    cond_a = check_condition_a(os)
    cond_b = check_condition_b(build_maps(os))
    result = {
        "condition_a": {
            "passed": cond_a.passed,
            "e": [float(x) for x in cond_a.e],
            "f": [float(x) for x in cond_a.f],
            "deviation": cond_a.deviation,
        },
        "condition_b": serialize.plain(cond_b),
    }
    margin = cond_b.min_s - 1.0 / state.dA**2
    claims = [
        _claim("conditions.a", cond_a.deviation, ATOL, cond_a.passed),
        _claim("conditions.b", margin, 0.0, cond_b.passed),
    ]
    return result, claims


def cmd_lhv(args) -> tuple[dict, list]:
    dec = _load_decomposition(args.decomposition)
    povm_a = parse_povm(args.povm_a)
    povm_b = parse_povm(args.povm_b, transpose_of=povm_a)
    try:
        model = build_lhv(dec, povm_a, povm_b)
    except LhvConstructionError as exc:
        return {"error": str(exc)}, [_claim("lhv.born_match", None, BORN_TOL, False)]
    return serialize.plain(model), [_claim("lhv.born_match", model.born_deviation, BORN_TOL)]


def cmd_scan(args) -> tuple[dict, list]:
    dec = _load_decomposition(args.decomposition)
    report = povm_scan(dec, family=args.family, budget=args.budget)
    result = {"family": report.family, "rows": serialize.plain(report.rows)}
    claims = []
    if report.threshold is not None:
        result["threshold"] = float(report.threshold)
    if report.threshold:  # the model built at a threshold above 0 must match the Born rule
        dev = report.threshold_deviation
        claims.append(_claim("scan.threshold_born_match", dev, BORN_TOL, dev is not None and dev <= BORN_TOL))
    return result, claims


def build_parser() -> _Parser:
    parser = _Parser(prog="minsep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--seed", type=_seed, default=0, help="seed for all randomised behaviour")
        p.add_argument("--out", default=None, help="write the JSON report to this path")

    p = sub.add_parser("schmidt", help="operator-Schmidt decomposition of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--rank-cutoff", type=float, default=RANK_CUTOFF)
    common(p, cmd_schmidt)

    p = sub.add_parser("crossnorm", help="cross-norm value and invariance under the diagonal scaling")
    p.add_argument("--state", required=True)
    p.add_argument("--samples", type=int, default=10, help=f"random scalings to try, 1 to {MAX_MAGIC_BUDGET}")
    common(p, cmd_crossnorm)

    p = sub.add_parser("decompose", help="construct a separable decomposition")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--unitary", default="identity", help="identity | seed | path to a matrix file")
    p.add_argument("--R", default="identity", help="identity | sqrtS | path to a diagonal file")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--orthogonal", action="store_true", help="use a real orthogonal mixing (Hermitian output)")
    p.add_argument("--t-seed", type=_seed, default=None, help="randomise the trace alignment (construction 3)")
    common(p, cmd_decompose)

    p = sub.add_parser("verify-minimal", help="deletion test on a decomposition's generator sets")
    p.add_argument("--state", required=True)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--mode", choices=("convex", "conic"), default="convex")
    p.add_argument("--threshold", type=float, default=INFEAS_THRESHOLD)
    common(p, cmd_verify_minimal)

    p = sub.add_parser("conditions", help="admissibility conditions of the transported construction")
    p.add_argument("--state", required=True)
    common(p, cmd_conditions)

    p = sub.add_parser("lhv", help="build a local hidden variable model for a POVM pair")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--povm-a", required=True, help="x | y | z | identity | magic:c | path")
    p.add_argument("--povm-b", default="transpose-a", help="same forms, or transpose-a")
    common(p, cmd_lhv)

    p = sub.add_parser("scan", help="scan a POVM family for model constructions")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--family", default="pauli", choices=("pauli", "magic"))
    p.add_argument("--budget", type=int, default=16, help=f"magic strengths to try, 1 to {MAX_MAGIC_BUDGET}")
    common(p, cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result, claims = args.run(args)
    except ValueError as exc:  # CliInputError and FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tolerances = tolerance_table()
    if hasattr(args, "rank_cutoff"):
        tolerances["rank_cutoff"] = args.rank_cutoff
    if hasattr(args, "threshold"):
        tolerances["infeas_threshold"] = args.threshold
    report = {
        "command": args.command,
        "seed": getattr(args, "seed", 0),
        "tolerances": tolerances,
        "result": result,
        "claims": claims,
    }
    text = dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c["pass"] for c in claims) else 2


if __name__ == "__main__":
    raise SystemExit(main())
