"""A cold start loads no scipy.

The package's one runtime dependency is numpy; scipy, whose import takes
about half a second, serves only the tests as an oracle.  Each case runs in
a fresh interpreter and checks ``sys.modules`` after ``import minsep`` and
after every command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import minsep
from minsep.cli import main

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

if loaded():
    sys.exit(f"import minsep loaded {loaded()[:5]}")
for argv, expected in json.loads(sys.argv[1]):
    code = main(argv)
    if code != expected:
        sys.exit(f"{argv} exited {code}, expected {expected}")
    if loaded():
        sys.exit(f"{argv} loaded {loaded()[:5]}")
"""

# The README chain, plus the two model commands the benchmark's chain adds.
README_CHAIN = [
    (["schmidt", "--state", "bell"], 0),
    (["crossnorm", "--state", "random:7:2:2", "--samples", "10"], 0),
    (["decompose", "--theorem", "1", "--state", "max-entangled:3", "--unitary", "seed",
      "--R", "sqrtS", "--seed", "5"], 0),
    (["decompose", "--theorem", "2", "--state", "bell", "--unitary", "identity",
      "--out", "dec.json"], 0),
    (["verify-minimal", "--state", "bell", "--decomposition", "dec.json"], 0),
    (["conditions", "--state", "bell"], 0),
    (["decompose", "--theorem", "3", "--state", "bell", "--out", "dec3.json"], 0),
    (["lhv", "--decomposition", "dec3.json", "--povm-a", "z", "--povm-b", "z"], 0),
    (["scan", "--decomposition", "dec3.json", "--family", "pauli"], 0),
    (["scan", "--decomposition", "dec3.json", "--family", "magic"], 0),
    (["lhv", "--decomposition", "dec.json", "--povm-a", "z", "--povm-b", "z"], 2),
]


def run_cold(tmp_path, commands):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_import_minsep(tmp_path):
    run_cold(tmp_path, [])


def test_readme_chain(tmp_path):
    run_cold(tmp_path, README_CHAIN)


@pytest.mark.parametrize("state", ["max-entangled:3", "random:5:2:3"])
def test_verify_minimal_theorem_2(tmp_path, state):
    run_cold(tmp_path, [
        (["decompose", "--theorem", "2", "--state", state, "--unitary", "identity",
          "--out", "dec.json"], 0),
        (["verify-minimal", "--state", state, "--decomposition", "dec.json"], 0),
    ])


def test_verify_minimal_that_runs_the_fit(tmp_path):
    # The phase-point frame padded with the identity: deleting the identity
    # leaves the Bell state in the hull, so the nonnegative fit runs.
    from minsep import serialize
    from minsep.bases import PAULI_I, phase_point_operators
    from minsep.decompositions import SeparableDecomposition

    ws = phase_point_operators().ops
    dec = SeparableDecomposition(np.full(5, 0.2), ws + (PAULI_I,), tuple(w.T for w in ws) + (PAULI_I,))
    (tmp_path / "dec.json").write_text(serialize.dumps(serialize.encode_decomposition(dec)))
    run_cold(tmp_path, [(["verify-minimal", "--state", "bell", "--decomposition", "dec.json"], 2)])
