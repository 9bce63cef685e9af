"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py WORKLOAD [--first 1] [--count 10]

Runs run.py once per seed (first .. first+count-1) with BENCHMARK.json's
run_seconds, then prints for each end-to-end metric its median, quartiles
(statistics.quantiles(values, n=4)) and the inter-quartile distance as a
share of the median, next to the metric's bound. Appends the runs to
perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--count", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in range(args.first, args.first + args.count):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps(dict(result, seed=seed)) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        if not result["correct"]:
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{(q3 - q1) / med:>9.3f}"
              f"{bounds[name]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
