"""Reports are a function of the state, not of the BLAS kernel.

``OPENBLAS_CORETYPE`` picks the kernel numpy's OpenBLAS uses, for one
process.  Inside a cluster of tied Schmidt coefficients the SVD returns
whatever basis its rounding gives, so before the Schmidt gauge a kernel
change rotated frames and moved results: random-pure:4:2:2's magic threshold
read 0.8319 under Haswell and 0.8578 under Nehalem.  Each kernel runs the
README chain and that threshold in a fresh interpreter; every number must
agree within 1e-12, and every exit code, flag and string exactly.  A numpy
that ignores the variable gives two equal runs.  The convex deletion bounds
of a dependent side are compared the same way, against Prescott.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minsep.feasibility import deletion_minimality
from test_stacked_bound import repeated_generator_case

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, pathlib, sys
from minsep.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([argv, code, json.loads(out.getvalue()) if out.getvalue() else None])
files = {p.name: json.loads(p.read_text()) for p in sorted(pathlib.Path().glob("*.json"))}
sys.stdout.write(json.dumps({"runs": runs, "files": files}))
"""

COMMANDS = [
    ["schmidt", "--state", "bell"],
    ["crossnorm", "--state", "random:7:2:2", "--samples", "10"],
    ["decompose", "--theorem", "1", "--state", "max-entangled:3", "--unitary", "seed", "--R", "sqrtS", "--seed", "5"],
    ["decompose", "--theorem", "2", "--state", "bell", "--unitary", "identity", "--out", "dec.json"],
    ["verify-minimal", "--state", "bell", "--decomposition", "dec.json"],
    ["conditions", "--state", "bell"],
    ["decompose", "--theorem", "3", "--state", "bell", "--out", "dec3.json"],
    ["lhv", "--decomposition", "dec3.json", "--povm-a", "z", "--povm-b", "z"],
    ["scan", "--decomposition", "dec3.json", "--family", "pauli"],
    ["verify-minimal", "--state", "bell", "--decomposition", "dec3.json", "--mode", "conic"],
    ["scan", "--decomposition", "dec3.json", "--family", "magic"],
    ["decompose", "--theorem", "3", "--state", "max-entangled:8", "--t-seed", "7", "--out", "dec8.json"],
    ["verify-minimal", "--state", "max-entangled:8", "--decomposition", "dec8.json"],
    ["schmidt", "--state", "max-entangled:3"],
    ["decompose", "--theorem", "2", "--state", "max-entangled:3", "--unitary", "seed", "--seed", "5"],
    ["decompose", "--theorem", "3", "--state", "random-pure:4:2:2", "--out", "pure.json"],
    ["scan", "--decomposition", "pure.json", "--family", "magic"],
]


def run_under(kernel, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_CORETYPE=kernel)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def assert_agree(a, b, where):
    """Numbers within 1e-12; booleans, strings, None and every structure exactly."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or isinstance(a, str):
        assert a == b, where
    elif isinstance(a, (int, float)):
        assert isinstance(b, (int, float)) and abs(a - b) <= 1e-12, f"{where}: {a!r} against {b!r}"
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), where
        for key in a:
            assert_agree(a[key], b[key], f"{where}.{key}")
    else:
        assert isinstance(b, list) and len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_agree(x, y, f"{where}[{k}]")


def test_reports_agree_across_kernels(tmp_path):
    haswell, nehalem = (tmp_path / "haswell", tmp_path / "nehalem")
    haswell.mkdir()
    nehalem.mkdir()
    first, second = run_under("Haswell", haswell), run_under("Nehalem", nehalem)
    assert [code for _, code, _ in first["runs"]] == [0] * len(COMMANDS)
    assert_agree(first, second, "")
    assert first["runs"][-1][2]["result"]["threshold"] > 0


BOUNDS_SCRIPT = """
import json
from minsep.feasibility import deletion_minimality
from test_stacked_bound import repeated_generator_case
rho, va, vb = repeated_generator_case("convex")
print(json.dumps([r.residual for r in deletion_minimality(rho, va, vb, threshold=0.0).records]))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS core types are x86_64 kernels")
def test_convex_dependent_side_bounds_agree_across_kernels():
    """Seven Hermitian generators spanning five dimensions, convex.  Their stacked
    QR kept rounding-noise columns, so row A-0 read 0.3094 under Haswell and
    0.3173 under Prescott; the rank-revealing SVD drops them.  Every bound of
    this process's kernel must agree with Prescott's within 1e-12 ||R||."""
    rho, va, vb = repeated_generator_case("convex")
    here = [r.residual for r in deletion_minimality(rho, va, vb, threshold=0.0).records]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]), OPENBLAS_CORETYPE="Prescott")
    proc = subprocess.run([sys.executable, "-c", BOUNDS_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    prescott = json.loads(proc.stdout)
    assert len(prescott) == len(here) == len(va) + len(vb)
    atol = 1e-12 * np.linalg.norm(rho.realigned)
    assert all(abs(a - b) <= atol for a, b in zip(here, prescott)), (here, prescott)
