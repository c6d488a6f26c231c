"""The benchmark's in-process correctness oracles, run once in the tests.

``perfbench/workloads.py`` checks every item it times: reconstruction
residuals computed independently, condition outcomes, transported costs, LHV
Born probabilities against an independent computation, scan rows against
``build_lhv``, the phase-point magic threshold and every certify verdict.
Here the full construct and certify item sets are built at one seed and each
item runs once, untimed, so an output change that breaks one of those oracles
fails the tests.  The benchmark's files are imported by path and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 5


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracer = load("tracer")


def items(workload):
    ctx = workloads.Context(PERFBENCH.parent, PERFBENCH.parent, inprocess=True)
    return [pytest.param(item, id=f"{workload}-{item.id}") for item in workloads.make_items(workload, SEED, False, ctx)]


@pytest.mark.parametrize("item", items("construct") + items("certify"))
def test_item_passes_its_oracle(item):
    assert item.check(item.run(tracer.Tracer(False))) == []
