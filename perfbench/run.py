"""mixwidth benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's instance files from the seed under
perfbench/work/, then starts the measured child process (child.py) with
only those inputs. The child imports mixwidth from src/ of this checkout
with single-threaded BLAS, and runs the jobs as a closed loop with one
caller. Job and set-up times are reported at a reference speed, because
the shared host's speed drifts: each job's times are scaled by a
calibration loop timed around the job, and each set-up time by a reference
interpreter start timed just before it. Every output is checked against
the references in perfbench/refs/.
Prints the machine, every metric by name with its unit, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the child
replays the first round of the schedule once untraced and once traced, and the
metrics are the per-layer ones. The full result, with the spans of a traced
run, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]  # check.py replays certificates with mixwidth.phi

from check import check  # noqa: E402
from workloads import WORKLOADS, entry_digest, parse_key, pool_entry, schedule  # noqa: E402

#: Measured set-up samples, after one unmeasured start that compiles bytecode.
SETUP_SPAWNS = 15
#: The calibration loop's time at the reference speed. Job times are
#: reported at that speed: scaled by REFERENCE_CAL_S over the loop's time
#: around the job (child.calibrate).
REFERENCE_CAL_S = 0.010
#: A start of the same interpreter with the child's environment that imports
#: numpy and the standard modules mixwidth uses, and no mixwidth code. Each
#: set-up sample is scaled by REFERENCE_START_S over this start's time just
#: before it, as the calibration loop does for jobs: the loop's speed does
#: not follow that of process start and imports.
REFERENCE_START = "import argparse, csv, dataclasses, fractions, json, math, numpy"
REFERENCE_START_S = 0.17
TAIL_PCT = 90
DEADLINE_S = 170  # the whole run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_s_per_item": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.load_instance.s": "s",
    "cli.self_s": "s",
    "psi.psi.calls": "count",
    "psi.psi.s": "s",
    "psi.self_s": "s",
    "psi.validate_instance.s": "s",
    **{f"psi.component_s.{j}": "s" for j in range(8)},
    "psi.component_peak_mb.6": "MB",
    "psi.component_peak_mb.7": "MB",
    "psi.pair_admit_ratio": "ratio",
    "phi.phi.calls": "count",
    "phi.phi.s": "s",
    "phi.us_per_call": "us",
    "exponents.solve_crossing.calls": "count",
    "exponents.solve_crossing.hits": "count",
    "exponents.solve_crossing.s": "s",
    "exponents.solve_critical_crossing.calls": "count",
    "exponents.solve_critical_crossing.hits": "count",
    "exponents.solve_critical_crossing.s": "s",
    "exponents.barycentric.calls": "count",
    "exponents.barycentric.s": "s",
    "exponents.convex_combine.calls": "count",
    "witness.best_witness_lower_bound.calls": "count",
    "witness.best_witness_lower_bound.s": "s",
    "witness.v_inclusion_scale.calls": "count",
    "witness.v_inclusion_scale.s": "s",
    "witness.v_width_lower_bound.calls": "count",
    **{
        f"norms.{name}.{stat}": unit
        for name in ("mixed_norm", "membership", "sample_boundary",
                     "interpolation_check", "corollary_check")
        for stat, unit in (("calls", "count"), ("s", "s"))
    },
    "oracles.numeric_width_estimate.calls": "count",
    "oracles.numeric_width_estimate.s": "s",
    "oracles.self_s": "s",
    "verify.run_suites.s": "s",
    "verify.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def machine(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
    }


def make_job(workload, key: str, work: Path) -> dict:
    """Write pool entry `key`'s instance file under `work`; returns its job."""
    entry = pool_entry(workload, *parse_key(key))
    job = {"key": key, "kind": entry["kind"], "check": entry["check"],
           "items": entry["items"], "digest": entry_digest(entry), "path": None}
    if entry["instance"] is not None:
        path = work / f"{key}.json"
        path.write_text(json.dumps(entry["instance"]))
        job["path"] = str(path)
    if entry["kind"] == "cli":
        job["argv"] = ([job["path"]] if job["path"] else []) + entry["args"]
    else:
        job["oracle"] = entry["oracle"]
    return job


def write_inputs(workload, seed: int, work: Path) -> Path:
    """Instance files and the manifest for one seeded run; returns the manifest."""
    rounds = schedule(workload, seed)
    jobs = {
        key: make_job(workload, key, work)
        for key in sorted({key for keys in rounds for key in keys})
    }
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({
        "src": str(SRC), "rounds": rounds, "jobs": jobs,
    }))
    return manifest


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(manifest: Path, mode: str, seconds: float, deadline: float):
    """Start the child; returns (set-up seconds, its final stdout line)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(manifest), mode, repr(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            raise RuntimeError("the measured child did not start")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("the measured child ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"the measured child exited with code {proc.returncode}")
    return setup, out.strip().splitlines()[-1] if mode != "setup" else None


def reference_start() -> float:
    """Wall seconds of one reference interpreter start (REFERENCE_START)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_START], env=child_env(), check=True,
                   timeout=60)
    return time.perf_counter() - start


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    rank = max(1, math.ceil(pct / 100 * len(values)))
    return sorted(values)[rank - 1], rank


def load_refs(name: str) -> dict:
    return json.loads((HERE / "refs" / f"{name}.json").read_text())["entries"]


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S
    refs = load_refs(workload.name)
    work = HERE / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        manifest = write_inputs(workload, args.seed, work)
        jobs = json.loads(manifest.read_text())["jobs"]
        spawn(manifest, "setup", 0.0, deadline)  # warm-up, not measured
        reference_start()
        raw_setups, setups = [], []
        for _ in range(SETUP_SPAWNS):
            reference = reference_start()
            raw_setups.append(spawn(manifest, "setup", 0.0, deadline)[0])
            setups.append(raw_setups[-1] * REFERENCE_START_S / reference)
        mode = "trace" if args.trace else "run"
        _, line = spawn(manifest, mode, float(args.seconds), deadline)
        report = json.loads(line)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for result in report["jobs"]:
        scale = REFERENCE_CAL_S / result["cal_s"]
        result["raw_wall_s"], result["raw_cpu_s"] = result["wall_s"], result["cpu_s"]
        result["wall_s"], result["cpu_s"] = result["wall_s"] * scale, result["cpu_s"] * scale
    failures = []
    items, wall = 0, []
    for result in report["jobs"]:
        job, ref = jobs[result["key"]], refs.get(result["key"])
        if result["code"] != 0:
            why = f"exit code {result['code']}: {result['error'].strip()}"
        elif ref is None or ref["digest"] != job["digest"]:
            why = "no reference recorded for this input"
        else:
            why = check(job["check"], result["output"], ref["ref"])
        if why is None:
            items += job["items"]
        else:
            failures.append(f"{result['key']}: {why}")
        wall.append(result["wall_s"])
    attempted = len(report["jobs"])
    if args.trace:
        wall = wall[attempted // 2:]  # the traced pass
    p50 = statistics.median(wall)
    tail, rank = nearest_rank(wall, TAIL_PCT)
    summary = {
        "workload": workload.name, "why": workload.why, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(args.seed), "attempted": attempted,
        "failed": len(failures), "failed_frac": len(failures) / attempted,
        "failures": failures[:20], "items": items, "loop_s": report["loop_s"],
        "tail": {"pct": TAIL_PCT, "rank": rank, "count": len(wall), "beyond": len(wall) - rank},
        "setup_samples_s": setups, "unscaled_setup_samples_s": raw_setups,
    }
    if args.trace:
        metrics = {name: report["layers"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        # Each slot's median job stands for it, so a slow spell of the host
        # during part of the run moves the rates little.
        slots = defaultdict(list)
        for result in report["jobs"]:
            slots[parse_key(result["key"])[0]].append(result)
        round_items = sum(jobs[rs[0]["key"]]["items"] for rs in slots.values())
        round_wall = sum(statistics.median(r["wall_s"] for r in rs) for rs in slots.values())
        round_cpu = sum(statistics.median(r["cpu_s"] for r in rs) for rs in slots.values())
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": (1 - len(failures) / attempted) * round_items / round_wall,
            "cpu_s_per_item": round_cpu / round_items,
            "job_s.p50": p50,
            "job_s.tail": tail,
            "peak_rss_mb": report["maxrss_kb"] / 1024,
        }
        raw = [r["raw_wall_s"] for r in report["jobs"]]
        summary["unscaled"] = {
            "items_per_s": items / sum(raw),
            "job_s.p50": statistics.median(raw),
            "job_s.tail": nearest_rank(raw, TAIL_PCT)[0],
            "setup_s": statistics.median(raw_setups),
            "calibration_s.median": statistics.median(r["cal_s"] for r in report["jobs"]),
        }
        units = END_TO_END
    summary["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(summary, job_wall_s=wall, spans=report.get("spans", []),
                  jobs=[{k: r[k] for k in ("key", "raw_wall_s", "raw_cpu_s", "cal_s")}
                        for r in report["jobs"]])
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail)
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mixwidth" / "__init__.py").is_file():
        print(f"perfbench: no mixwidth sources under {SRC}", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    m = summary["machine"]
    print(f"workload {summary['workload']} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {summary['why']}")
    print(f"machine nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']}")
    t = summary["tail"]
    print(f"jobs attempted={summary['attempted']} failed={summary['failed']} "
          f"failed_frac={summary['failed_frac']:.4f} items={summary['items']} "
          f"loop_s={summary['loop_s']:.3f}; job_s.tail is p{t['pct']} "
          f"(rank {t['rank']} of {t['count']}, {t['beyond']} beyond)")
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    if args.trace:
        v = {name: metric["value"] for name, metric in summary["metrics"].items()}
        crossings = [f"exponents.{f}" for f in ("solve_crossing", "solve_critical_crossing")]
        print(f"psi.pair_admit_ratio = {sum(v[c + '.hits'] for c in crossings)} hits / "
              f"{sum(v[c + '.calls'] for c in crossings)} crossing-solver calls; "
              f"trace overhead = {v['trace.traced_wall_s']:.3f} s traced / "
              f"{v['trace.untraced_wall_s']:.3f} s untraced")
    if "unscaled" in summary:
        print("unscaled: " + " ".join(
            f"{name}={value:.6g}" for name, value in summary["unscaled"].items()))
    for name, metric in summary["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
