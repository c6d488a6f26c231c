"""The minsep benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The run measures whole passes over the
workload's fixed input set until ``--seconds`` have elapsed (cli-chain makes
at least two, so its reports can be compared across passes), checks every
item with the workload's oracle, prints the environment and every metric
with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that alternates untraced
and traced passes and reports the per-layer metrics, writing its spans to
``.perfbench_out/``.  Exit status: 0 when every item is correct, 1 when an
item fails, 2 when the checkout holds no minsep source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import ITEM, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_PASSES = 3
P90_MIN_SAMPLES = 100
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("construct", "certify", "hull-fit", "cli-chain")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    minsep and generated the workload's inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env()) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return statistics.median(times)


def parse_importtime(text: str) -> tuple[float, float]:
    """(minsep, scipy) cumulative import seconds from ``-X importtime``."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((int(cumulative), len(name) - len(name.lstrip()), name.strip()))
    minsep_us = next(cum for cum, _, name in rows if name == "minsep")
    # Rows come in post-order; reversed, each parent precedes its subtree.
    scipy_us, inside = 0, None
    for cum, level, name in reversed(rows):
        if inside is not None and level > inside:
            continue
        inside = None
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += cum
            inside = level
    return minsep_us / 1e6, scipy_us / 1e6


def measure_imports() -> tuple[float, float]:
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import minsep"],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_pass(items, tracer, results) -> None:
    """Run every item once; record (item, seconds, problems, traced)."""
    for item in items:
        start = perf_counter()
        try:
            with tracer.item(item.id):
                out = item.run(tracer)
        except Exception as exc:  # an unexpected raise is a failed item, not a crash
            elapsed = perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = perf_counter() - start
            problems = item.check(out)
        results.append((item, elapsed, problems, tracer.enabled))


def layer_metrics(tracer, results, functions, layers) -> dict:
    """Per-layer metrics from the traced passes' spans; ``results`` also
    holds the untraced passes, the base of the tracing overhead."""
    spans = tracer.spans
    items = [i for i, s in enumerate(spans) if s[0] == ITEM]
    item_total = sum(spans[i][2] - spans[i][1] for i in items)
    covered = sum(s[2] - s[1] for s in spans if s[3] is not None and spans[s[3]][0] == ITEM)
    metrics = {}
    busy_by_module = dict.fromkeys(layers, 0.0)
    for name in functions:
        mine = [s for s in spans if s[0] == name]
        busy = sum((s[2] - s[1] for s in mine), 0.0)
        busy_by_module[name.split(".")[0]] += busy
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.raised"] = (sum(1 for s in mine if s[5]), "count")
    for layer in layers:
        metrics[f"{layer}.share"] = (busy_by_module[layer] / item_total, "ratio")
    lhv_calls = metrics["lhv.build_lhv.calls"][0]
    built = lhv_calls - metrics["lhv.build_lhv.raised"][0]
    metrics["lhv.build_lhv.ok_frac"] = (built / lhv_calls if lhv_calls else 0.0, "ratio")
    metrics["bench.item.self_s"] = (item_total - covered, "s")
    traced = [t for _, t, _, on in results if on]
    untraced = [t for _, t, _, on in results if not on]
    base = statistics.fmean(untraced)
    metrics["trace.overhead_frac"] = ((statistics.fmean(traced) - base) / base, "ratio")
    return metrics


def stage_medians(tracer, groups: dict) -> list[str]:
    """Median milliseconds per (stage, item group), for comparing with other
    measurements at the same dimension."""
    samples: dict = {}
    for name, start, end, parent, item, _ in tracer.spans:
        if parent is not None and name != ITEM:
            samples.setdefault((name, groups[item]), []).append(end - start)
    return [
        f"stage {name} [{group}] median {1e3 * statistics.median(t):.3f} ms over {len(t)} calls"
        for (name, group), t in sorted(samples.items())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minsep" / "__init__.py").is_file():
        print(f"error: no minsep source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads, here and in every child
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    setup_s = measure_setup(args.workload, args.seed, args.tiny)
    import workloads  # loads numpy, so after the BLAS pins

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        traced = bool(args.trace)
        ctx = workloads.Context(ROOT, workdir, inprocess=traced or args.workload != "cli-chain")
        start = perf_counter()
        items = workloads.make_items(args.workload, args.seed, args.tiny, ctx)
        inputs_s = perf_counter() - start
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))

        results: list = []
        run_pass(items[:1], Tracer(False), results)  # warm-up, checked but not timed
        warm = len(results)
        tracer = Tracer(True)
        min_passes = 2 if traced or args.workload == "cli-chain" else MIN_PASSES
        passes = 0
        began = perf_counter()
        while passes < min_passes or perf_counter() - began < args.seconds or (traced and passes % 2):
            run_pass(items, tracer if traced and passes % 2 else Tracer(False), results)
            passes += 1
        timed = results[warm:]
        samples = [t for _, t, _, on in timed if not on]
        per_item: dict = {}
        for item, t, _, on in timed:
            if not on:
                per_item.setdefault(item.id, []).append(t)
        # An item's time is its median over the untraced passes.
        typical = {item_id: statistics.median(t) for item_id, t in per_item.items()}
        failed = [(item.id, problems) for item, _, problems, _ in results if problems]
        attempted = len(results)
        for item_id, problems in failed[:20]:
            print(f"FAIL {item_id}: {'; '.join(problems)}", file=sys.stderr)

        peak_kb = ctx.child_peak_kb if not ctx.inprocess else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        end_to_end = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(typical) / sum(typical.values()), "1/s"),
            "item_ms.p50": (1e3 * statistics.median(typical.values()), "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        print(f"items {len(typical)}, passes {passes}, samples {len(samples)} in {sum(samples):.3f} s")
        by_group: dict = {}
        for item in items:
            by_group.setdefault(item.group, []).append(typical[item.id])
        for group, t in sorted(by_group.items(), key=lambda kv: statistics.median(kv[1])):
            print(f"group {group} median {1e3 * statistics.median(t):.3f} ms over {len(t)} items")
        if traced:
            import_s, import_scipy_s = measure_imports()
            metrics = layer_metrics(tracer, timed, workloads.FUNCTIONS, workloads.LAYERS)
            metrics["setup.import_s"] = (import_s, "s")
            metrics["setup.import_scipy_s"] = (import_scipy_s, "s")
            metrics["setup.inputs_s"] = (inputs_s, "s")
            groups = {item.id: item.group for item in items}
            for line in stage_medians(tracer, groups):
                print(line)
            tracer.write(
                OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "env": env, "groups": groups,
                 "metrics": {k: v for k, (v, _) in metrics.items()}},
            )
        else:
            metrics = end_to_end
        for name, (value, unit) in end_to_end.items():
            print(f"metric {name} = {value!r} {unit}")
        print(f"metric item_ms.samples = {len(typical)} count")
        if len(samples) >= P90_MIN_SAMPLES:
            print(f"metric item_ms.p90 = {1e3 * statistics.quantiles(samples, n=10)[8]!r} ms")
        else:
            print(f"metric item_ms.p90 = n/a ms (needs {P90_MIN_SAMPLES} samples, run had {len(samples)})")
        print(f"metric item_ms.p90_samples = {len(samples)} count")
        print(f"metric fail_frac = {len(failed) / attempted!r} ratio")
        if traced:
            for name, (value, unit) in metrics.items():
                print(f"metric {name} = {value!r} {unit}")
        print(json.dumps({
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 1 if failed else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
