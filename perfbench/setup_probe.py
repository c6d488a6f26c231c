"""Set-up probe: import minsep, generate one workload's inputs, print "ready".

    python3 perfbench/setup_probe.py <workload> <seed> [--tiny]

run.py spawns this in a fresh interpreter and times it from spawn to the
"ready" line, which is the benchmark's set-up time.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports minsep)

if __name__ == "__main__":
    workloads.make_items(sys.argv[1], int(sys.argv[2]), "--tiny" in sys.argv[3:], workloads.Context(ROOT, ROOT / ".perfbench_out"))
    print("ready", flush=True)
