"""Benchmark self-test: traced counts repeat exactly between two runs.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Checks that run.py's metric tables are exactly the ones BENCHMARK.json
lists, then runs each workload's traced run twice on one seed and asserts
that both are correct and that every count (*.calls, *.hits) is identical.
Exits nonzero on the first violation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect outputs\n{proc.stdout}")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != table:
            raise SystemExit(f"BENCHMARK.json {key} differs from run.py")
    for workload in args.workloads or sorted(WORKLOADS):
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = [n for n in first if n.endswith((".calls", ".hits"))]
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        if differ:
            raise SystemExit(f"{workload}: counts differ between traced runs: {differ}")
        print(f"{workload}: {len(counts)} counts repeat exactly; trace overhead "
              f"{first['trace.overhead_ratio']['value']:.3f} and "
              f"{second['trace.overhead_ratio']['value']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
