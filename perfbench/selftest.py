"""Self-test of the benchmark at tiny size (not part of the repository's tests).

    python3 perfbench/selftest.py

Runs every workload run.py knows (hull-fit too, which BENCHMARK.json does
not declare) untraced and traced with ``--tiny`` and checks that the output
is well formed: the last line is the result object, its metrics are exactly
those BENCHMARK.json declares, with their units, every metric name appears
in the text with its unit, no item fails, and in the traced run no item's
stage spans add up to more than the item's own span.  It also checks that a
directory holding only the benchmark, without minsep's source, makes the
benchmark exit nonzero without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS
from tracer import ITEM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
TEXT_METRICS = {
    "setup_s": "s", "items_per_s": "1/s", "item_ms.p50": "ms", "item_ms.p90": "ms",
    "item_ms.samples": "count", "peak_rss_mb": "MB", "fail_frac": "ratio",
}
LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{where}: a metric value is not a number")
    text = {m.group(1): m.group(3) for m in map(LINE.match, lines[:-1]) if m}
    wanted = dict(TEXT_METRICS, **(declared if trace else {}))
    for name, unit in wanted.items():
        if text.get(name) != unit:
            problems.append(f"{where}: text has no line for {name} in {unit}")
    if not any(line.startswith("env {") for line in lines):
        problems.append(f"{where}: no environment line")
    if trace:
        problems += check_spans(where, ROOT / ".perfbench_out" / f"trace-{workload}-{SEED}.json")
    return problems


def check_spans(where: str, path: Path) -> list[str]:
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    busy = {}
    for span in spans:
        if span["parent"] is not None:
            busy[span["parent"]] = busy.get(span["parent"], 0.0) + span["end"] - span["start"]
    problems = []
    items = [i for i, s in enumerate(spans) if s["name"] == ITEM]
    if not items:
        problems.append(f"{where}: no item spans")
    for i in items:
        wall = spans[i]["end"] - spans[i]["start"]
        if busy.get(i, 0.0) > wall:
            problems.append(f"{where}: item {spans[i]['item']} busy {busy[i]:.6f} s > wall {wall:.6f} s")
    return problems


def check_without_source() -> list[str]:
    """The benchmark alone, without src/, must fail without printing a result."""
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("construct", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_without_source()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
