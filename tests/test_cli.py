"""Command line interface: reports, claims, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from minsep import serialize
from minsep.bases import PAULI_I, PAULI_Z, phase_point_operators
from minsep.cli import main
from minsep.decompositions import SeparableDecomposition
from minsep.feasibility import DeletionRecord, FeasibilityResult, StateSpace, separable_feasible
from minsep.lhv import LhvModel, ScanRecord, povm_scan
from minsep.states import projective_povm, random_density
from minsep.tolerances import tolerance_table
from minsep.transport import ConditionBReport

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def bell_theorem_2_file(capsys, tmp_path):
    path = tmp_path / "dec2.json"
    argv = ["decompose", "--theorem", "2", "--state", "bell", "--unitary", "identity"]
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def phase_point_file(tmp_path, extra_identity=False):
    ws = list(phase_point_operators().ops)
    ops_a = ws + ([PAULI_I] if extra_identity else [])
    ops_b = [w.T for w in ws] + ([PAULI_I] if extra_identity else [])
    n = len(ops_a)
    dec = SeparableDecomposition(np.full(n, 1.0 / n), tuple(ops_a), tuple(ops_b))
    path = tmp_path / "dec.json"
    path.write_text(serialize.dumps(serialize.encode_decomposition(dec)))
    return str(path)


class TestSchmidt:
    def test_bell(self, capsys):
        code, report = run(capsys, "schmidt", "--state", "bell")
        assert code == 0
        assert report["command"] == "schmidt"
        np.testing.assert_allclose(report["result"]["s"], [0.5] * 4, atol=1e-12)
        assert all(c["pass"] for c in report["claims"])
        assert "rank_cutoff" in report["tolerances"]

    def test_fixture_forms(self, capsys):
        for spec in ("max-entangled:3", "random:7:2:3", "random-pure:1:2:2"):
            code, report = run(capsys, "schmidt", "--state", spec)
            assert code == 0


class TestCrossnorm:
    def test_bell_value(self, capsys):
        code, report = run(capsys, "crossnorm", "--state", "bell", "--samples", "5")
        assert code == 0
        assert abs(report["result"]["value"] - 2.0) < 1e-10
        assert len(report["result"]["per_r"]) == 5

    def test_no_samples_exits_1(self, capsys):
        for count in ("0", "-2"):
            assert main(["crossnorm", "--state", "bell", "--samples", count]) == 1
            assert "error:" in capsys.readouterr().err

    def test_huge_sample_count_exits_1_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["crossnorm", "--state", "bell", "--samples", "100000000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --samples must be at most 10000, got 100000000\n"
        assert elapsed < 1.0


class TestDecompose:
    def test_equal_norm_identity(self, capsys):
        code, report = run(
            capsys, "decompose", "--theorem", "2", "--state", "bell", "--unitary", "identity"
        )
        assert code == 0
        np.testing.assert_allclose(report["result"]["p"], [0.25] * 4, atol=1e-12)
        assert {c["id"] for c in report["claims"]} >= {
            "decompose.reconstruction_residual",
            "decompose.cost_attains_cross_norm",
            "decompose.equal_norms",
        }

    def test_cross_norm_family_seeded(self, capsys):
        code, report = run(
            capsys, "decompose", "--theorem", "1", "--state", "random:3:2:2",
            "--unitary", "seed", "--R", "sqrtS", "--seed", "11",
        )
        assert code == 0
        assert all(c["pass"] for c in report["claims"])

    def test_transported(self, capsys):
        code, report = run(capsys, "decompose", "--theorem", "3", "--state", "bell")
        assert code == 0
        assert "T" in report["result"]
        ids = {c["id"] for c in report["claims"]}
        assert "decompose.unit_traces" in ids and "decompose.transported_cost" in ids

    def test_orthogonal_flag(self, capsys):
        code, report = run(
            capsys, "decompose", "--theorem", "2", "--state", "bell",
            "--unitary", "seed", "--orthogonal", "--seed", "5",
        )
        assert code == 0

    def test_matrix_and_scaling_files(self, capsys, tmp_path):
        from scipy.linalg import hadamard

        u_path = tmp_path / "u.json"
        u_path.write_text(serialize.dumps(serialize.encode_matrix(hadamard(4) / 2.0)))
        r_path = tmp_path / "r.json"
        r_path.write_text(json.dumps([1.0, 2.0, 0.5, 1.5]))
        code, report = run(
            capsys, "decompose", "--theorem", "2", "--state", "bell",
            "--unitary", str(u_path), "--R", str(r_path),
        )
        assert code == 0
        assert all(c["pass"] for c in report["claims"])


class TestVerifyMinimal:
    def test_phase_point_minimal(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        code, report = run(capsys, "verify-minimal", "--state", "bell", "--decomposition", dec)
        assert code == 0
        assert report["result"]["passed"]
        assert len(report["result"]["deletions"]) == 8

    def test_redundant_generator_fails(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path, extra_identity=True)
        code, report = run(capsys, "verify-minimal", "--state", "bell", "--decomposition", dec)
        assert code == 2
        assert not report["result"]["passed"]

    def test_baseline_feasibility_embedded(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        _, report = run(capsys, "verify-minimal", "--state", "bell", "--decomposition", dec)
        baseline = report["result"]["baseline"]
        assert baseline["feasible"]
        assert baseline["residual"] <= 1e-8
        assert len(baseline["weights"]) == 4


    def test_baseline_decided_by_the_decomposition(self, capsys, tmp_path):
        dec = bell_theorem_2_file(capsys, tmp_path)
        code, report = run(capsys, "verify-minimal", "--state", "bell", "--decomposition", dec)
        assert code == 0
        baseline = report["result"]["baseline"]
        assert baseline["decided_by"] == "decomposition"
        assert baseline["feasible"]

    def test_baseline_falls_back_to_the_fit(self, capsys, tmp_path):
        dec = bell_theorem_2_file(capsys, tmp_path)
        _, report = run(
            capsys, "verify-minimal", "--state", "random:3:2:2", "--decomposition", dec
        )
        baseline = report["result"]["baseline"]
        assert baseline["decided_by"] == "nnls"
        decomposition = serialize.decode_decomposition(
            serialize.load_json(dec, "decomposition")["result"], "decomposition"
        )
        direct = separable_feasible(
            random_density(3, 2, 2),
            StateSpace(2, decomposition.A, "convex"),
            StateSpace(2, decomposition.B, "convex"),
        )
        assert baseline["feasible"] == direct.feasible
        assert baseline["residual"] == direct.residual
        assert baseline["weights"] == direct.weights.tolist()

    def test_non_finite_threshold_exits_1(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        for value in ("nan", "inf"):
            code = main(
                ["verify-minimal", "--state", "bell", "--decomposition", dec, "--threshold", value]
            )
            assert code == 1
            assert "error:" in capsys.readouterr().err


class TestConditions:
    def test_bell_passes_both(self, capsys):
        code, report = run(capsys, "conditions", "--state", "bell")
        assert code == 0
        assert report["result"]["condition_a"]["passed"]
        assert report["result"]["condition_b"]["passed"]
        assert abs(report["result"]["condition_b"]["min_s"] - 0.5) < 1e-10

    def test_condition_b_reports_the_spectral_verdict_only(self, capsys):
        code, report = run(capsys, "conditions", "--state", "max-entangled:3")
        assert code == 0
        assert set(report["result"]["condition_b"]) == {"passed", "min_s", "bound", "ceiling", "marginal"}
        assert "svd_rtol" not in report["tolerances"]

    def test_rank_deficient_reports_failure(self, capsys, tmp_path):
        path = tmp_path / "product.json"
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
        from minsep.states import BipartiteState

        state = BipartiteState(2, 2, rho)
        path.write_text(serialize.dumps(serialize.encode_state(state)))
        code, report = run(capsys, "conditions", "--state", str(path))
        assert code == 2
        assert not report["result"]["condition_a"]["passed"]


class TestLhv:
    def test_phase_point_z_pair(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        code, report = run(capsys, "lhv", "--decomposition", dec, "--povm-a", "z", "--povm-b", "z")
        assert code == 0
        assert report["result"]["born_deviation"] <= 1e-10

    def test_default_b_is_transpose(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        code, report = run(capsys, "lhv", "--decomposition", dec, "--povm-a", "magic:0.5")
        assert code == 0

    def test_failure_exits_2(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        code, report = run(capsys, "lhv", "--decomposition", dec, "--povm-a", "magic:0.9")
        assert code == 2
        assert "error" in report["result"]

    def test_povm_from_file(self, capsys, tmp_path):
        from minsep.states import projective_povm

        dec = phase_point_file(tmp_path)
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(serialize.dumps(serialize.encode_povm(projective_povm("x"))))
        code, report = run(
            capsys, "lhv", "--decomposition", dec,
            "--povm-a", str(povm_path), "--povm-b", str(povm_path),
        )
        assert code == 0


class TestScan:
    def test_pauli_scan(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        code, report = run(capsys, "scan", "--decomposition", dec, "--family", "pauli")
        assert code == 0
        assert len(report["result"]["rows"]) == 10

    def test_magic_scan_threshold(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        code, report = run(capsys, "scan", "--decomposition", dec, "--family", "magic", "--budget", "4")
        assert code == 0
        assert abs(report["result"]["threshold"] - (np.sqrt(3) - 1)) < 1e-5
        (claim,) = report["claims"]
        assert claim["id"] == "scan.threshold_born_match"
        assert claim["pass"] and claim["tolerance"] == 1e-10 and 0.0 <= claim["value"] <= 1e-10

    def test_failed_threshold_check_exits_2_with_its_report(self, capsys, tmp_path):
        # A traceless, silent term whose other side is large carries correlation
        # past BORN_TOL: the model at c* = 1 misses the Born probabilities.
        dec = SeparableDecomposition(np.ones(2), (PAULI_I / 2, 0.8e-9 * PAULI_Z), (PAULI_I / 2, 1e4 * PAULI_I))
        path = tmp_path / "mismatch.json"
        path.write_text(serialize.dumps(serialize.encode_decomposition(dec)))
        code, report = run(capsys, "scan", "--decomposition", str(path), "--family", "pauli")
        assert code == 0 and report["claims"] == []
        code, report = run(capsys, "scan", "--decomposition", str(path), "--family", "magic")
        assert code == 2
        assert report["result"]["threshold"] == 1.0
        (claim,) = report["claims"]
        assert claim["id"] == "scan.threshold_born_match"
        assert not claim["pass"] and claim["value"] > claim["tolerance"] == 1e-10
        assert claim["value"] == povm_scan(dec, family="magic").threshold_deviation

    def test_zero_threshold_makes_no_claim(self, capsys, tmp_path):
        path = tmp_path / "dec3.json"
        assert main(["decompose", "--theorem", "3", "--state", "bell", "--out", str(path)]) == 0
        capsys.readouterr()
        code, report = run(capsys, "scan", "--decomposition", str(path), "--family", "magic")
        assert code == 0
        assert report["result"]["threshold"] == 0.0 and report["claims"] == []


    def test_magic_budget_below_one_exits_1(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        for budget in ("0", "-3"):
            code = main(["scan", "--decomposition", dec, "--family", "magic", "--budget", budget])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == f"error: the magic family needs a budget of at least 1, got {budget}\n"

    def test_magic_budget_above_the_cap_exits_1(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        code = main(["scan", "--decomposition", dec, "--family", "magic", "--budget", "10001"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: the magic family takes a budget of at most 10000, got 10001\n"


class TestReportFields:
    """Each result row carries exactly the fields of its library record, and
    those fields keep their names: renaming one changes the wire format."""

    @staticmethod
    def names(record, *wire):
        assert {f.name for f in fields(record)} == set(wire)
        return set(wire)

    def test_verify_minimal(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        _, report = run(capsys, "verify-minimal", "--state", "bell", "--decomposition", dec)
        baseline = self.names(FeasibilityResult, "feasible", "weights", "residual", "constraint_violation")
        assert set(report["result"]["baseline"]) == baseline | {"decided_by"}
        deletion = self.names(DeletionRecord, "side", "index", "residual", "feasible", "decided_by")
        assert report["result"]["deletions"] and all(set(row) == deletion for row in report["result"]["deletions"])

    def test_lhv(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        _, report = run(capsys, "lhv", "--decomposition", dec, "--povm-a", "z", "--povm-b", "z")
        wire = self.names(LhvModel, "hidden_weights", "response_a", "response_b", "dropped", "born_deviation")
        assert set(report["result"]) == wire

    @pytest.mark.parametrize("family", ["pauli", "magic"])
    def test_scan(self, capsys, tmp_path, family):
        dec = phase_point_file(tmp_path)
        _, report = run(capsys, "scan", "--decomposition", dec, "--family", family, "--budget", "3")
        wire = self.names(ScanRecord, "label", "success", "born_deviation", "detail")
        assert report["result"]["rows"] and all(set(row) == wire for row in report["result"]["rows"])

    def test_conditions(self, capsys):
        _, report = run(capsys, "conditions", "--state", "bell")
        wire = self.names(ConditionBReport, "min_s", "bound", "ceiling", "marginal", "passed")
        assert set(report["result"]["condition_b"]) == wire

    def test_tolerance_table(self, capsys):
        _, report = run(capsys, "conditions", "--state", "bell")
        expected = {"atol", "psd_tol", "rank_cutoff", "recon_tol", "feas_tol", "infeas_threshold", "min_weight"}
        assert set(tolerance_table()) == set(report["tolerances"]) == expected


class TestPovmDimension:
    def test_qubit_povm_on_qutrit_decomposition_exits_1(self, capsys, tmp_path):
        path = tmp_path / "dec3.json"
        assert main(["decompose", "--theorem", "3", "--state", "max-entangled:3", "--out", str(path)]) == 0
        capsys.readouterr()
        for argv in (["lhv", "--povm-a", "z"], ["scan", "--family", "pauli"], ["scan", "--family", "magic"]):
            code = main([*argv, "--decomposition", str(path)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == "error: POVM dimension 2 does not match operator dimension 3\n"

class TestErrors:
    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["schmidt", "--state", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "state" in err

    def test_missing_field_named(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"rows": 4, "cols": 4}))
        code = main(["schmidt", "--state", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "dA" in err

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"rows": True, "cols": True}, "state.rows"),
            ({"cols": True}, "state.rows"),
            ({"dA": True}, "state.dA"),
            ({"dB": True}, "state.dA"),
            ({"entries": [[True, False]]}, "state.entries[0]"),
        ],
    )
    def test_json_boolean_in_a_state_is_one_error_line(self, capsys, tmp_path, patch, field):
        """JSON true/false decode to Python bools, which are ints; none of them is a number here."""
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dA": 1, "dB": 1, "rows": 1, "cols": 1, "entries": [[1.0, 0.0]], **patch}))
        code = main(["schmidt", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {field}: ") and captured.err.count("\n") == 1

    def test_json_boolean_in_p_dim_or_r_is_one_error_line(self, capsys, tmp_path):
        dec = json.loads(Path(phase_point_file(tmp_path)).read_text())
        dec["p"][0] = True
        bad_dec, bad_povm, bad_r = tmp_path / "p.json", tmp_path / "povm.json", tmp_path / "r.json"
        bad_dec.write_text(json.dumps(dec))
        bad_povm.write_text(json.dumps({**serialize.encode_povm(projective_povm("z")), "dim": True}))
        bad_r.write_text(json.dumps([1.0, True, 1.0, 1.0]))
        cases = [
            (["lhv", "--decomposition", str(bad_dec), "--povm-a", "z"], "decomposition.p"),
            (["lhv", "--decomposition", phase_point_file(tmp_path), "--povm-a", str(bad_povm)], "povm.dim"),
            (["decompose", "--theorem", "1", "--state", "bell", "--R", str(bad_r)], "R"),
        ]
        for argv, field in cases:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith(f"error: {field}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["schmidt", "--state", "random:-1:2:2"], "state: seed must be non-negative, got -1"),
            (["schmidt", "--state", "random-pure:-4:2:2"], "state: seed must be non-negative, got -4"),
            (
                ["decompose", "--theorem", "1", "--state", "bell", "--unitary", "seed", "--seed", "-5"],
                "argument --seed: must be non-negative, got -5",
            ),
            (
                ["decompose", "--theorem", "3", "--state", "bell", "--t-seed", "-3"],
                "argument --t-seed: must be non-negative, got -3",
            ),
            (["crossnorm", "--state", "bell", "--seed", "-2"], "argument --seed: must be non-negative, got -2"),
            (["crossnorm", "--state", "bell", "--seed", "x2"], "argument --seed: expected an integer, got 'x2'"),
        ],
    )
    def test_negative_seed_names_the_field(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_positive_scaling_file_names_r(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps([1.0, -2.0, 1.0, 1.0]))
        code = main(["decompose", "--theorem", "1", "--state", "bell", "--R", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: R: diagonal entries must be strictly positive and finite\n"

    def test_unknown_flag_exits_1(self, capsys):
        code = main(["schmidt", "--nonsense"])
        assert code == 1

    def test_bad_fixture_exits_1(self, capsys):
        code = main(["schmidt", "--state", "random:1:2"])
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rank_cutoff_exits_1(self, capsys, value):
        code = main(["schmidt", "--state", "bell", "--rank-cutoff", value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: rank_cutoff must be finite and nonnegative, got {value}\n"

    @pytest.mark.parametrize("spec", ["magic:abc", "magic:", "magic:0.5:3", "magic:2"])
    def test_malformed_magic_strength_names_the_field(self, capsys, tmp_path, spec):
        dec = phase_point_file(tmp_path)
        code = main(["lhv", "--decomposition", dec, "--povm-a", spec, "--povm-b", "z"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: povm: expected magic:<strength in (0, 1]>, got {spec!r}\n"


    def test_non_finite_c_is_one_error_line(self):
        # A fresh interpreter, so any numpy warning would reach stderr.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for theorem, c in (("2", "nan"), ("2", "inf"), ("1", "nan")):
            argv = ["decompose", "--theorem", theorem, "--state", "bell", "--c", c]
            proc = subprocess.run(
                [sys.executable, "-m", "minsep.cli", *argv], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr == "error: c must be finite\n"

    def test_mixed_shape_decomposition_file_exits_1(self, capsys, tmp_path):
        eye2, eye3 = np.eye(2), np.eye(3)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "p": [0.5, 0.5],
            "A": [serialize.encode_matrix(eye2), serialize.encode_matrix(eye3)],
            "B": [serialize.encode_matrix(eye2), serialize.encode_matrix(eye2)],
            "meta": None,
        }))
        code = main(["lhv", "--decomposition", str(path), "--povm-a", "z"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: decomposition: A[1] has shape (3, 3), expected (2, 2)\n"


class TestDeterminism:
    def test_outputs_byte_identical(self, capsys, tmp_path):
        dec = phase_point_file(tmp_path)
        commands = [
            ["schmidt", "--state", "bell"],
            ["crossnorm", "--state", "random:5:2:2", "--seed", "9"],
            ["decompose", "--theorem", "2", "--state", "bell", "--unitary", "seed", "--seed", "3"],
            ["conditions", "--state", "bell"],
            ["lhv", "--decomposition", dec, "--povm-a", "z"],
            ["scan", "--decomposition", dec, "--family", "magic", "--budget", "4"],
        ]
        for argv in commands:
            main(list(argv))
            first = capsys.readouterr().out
            main(list(argv))
            second = capsys.readouterr().out
            assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        main(["schmidt", "--state", "bell", "--out", str(out)])
        capsys.readouterr()
        main(["schmidt", "--state", "bell"])
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout


class TestComposition:
    def test_decompose_report_feeds_verify_minimal(self, capsys, tmp_path):
        # A subcommand's report file is accepted wherever a bare object is.
        dec_path = tmp_path / "dec.json"
        code = main(
            ["decompose", "--theorem", "2", "--state", "bell",
             "--unitary", "identity", "--out", str(dec_path)]
        )
        capsys.readouterr()
        assert code == 0
        code, report = run(
            capsys, "verify-minimal", "--state", "bell", "--decomposition", str(dec_path)
        )
        assert code == 0
        assert report["result"]["passed"]

    def test_decompose_report_feeds_lhv_and_scan(self, capsys, tmp_path):
        dec_path = tmp_path / "dec3.json"
        assert main(["decompose", "--theorem", "3", "--state", "bell", "--out", str(dec_path)]) == 0
        capsys.readouterr()
        code, report = run(capsys, "lhv", "--decomposition", str(dec_path), "--povm-a", "z")
        assert code == 0
        assert report["result"]["born_deviation"] <= 1e-10
        code, report = run(capsys, "scan", "--decomposition", str(dec_path), "--family", "pauli")
        assert code == 0
        assert all(r["success"] for r in report["result"]["rows"])
