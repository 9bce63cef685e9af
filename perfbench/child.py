"""The measured process: imports mixwidth once, then runs one workload's jobs.

Usage: python3 child.py MANIFEST MODE SECONDS, with MODE one of

* ``setup``: get ready for the first job, print ``ready`` and exit;
* ``run``: after ``ready``, run whole rounds as a closed loop with one
  caller while the next round should end within SECONDS (at least one);
* ``trace``: after ``ready``, run the schedule's first round once untraced
  and once traced, so the traced counts repeat exactly.

The last line on stdout is one JSON object with the job results. CLI jobs
call ``mixwidth.cli.main(argv)`` with stdout captured, exactly as the
``mixwidth`` command runs; oracle jobs call the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def calibrate() -> float:
    """Seconds taken by a fixed mix of Fraction, float and small-array work.

    run.py divides each job's times by the mean of this loop's time just
    before and just after the job: the shared host's speed drifts by up to
    1.9x in phases of minutes, and the loop slows with it. numpy is imported
    here, after ``ready``, so that set-up counts it only if mixwidth does.
    """
    import numpy as np

    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i % 7 + 1, i % 13 + 2)
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(300):
        a = np.abs(a) ** 1.5 / (a.sum() + 1.0)
    x = 0.0
    for i in range(20000):
        x += float(i) ** 0.5
    return time.perf_counter() - start


def run_job(job: dict, loaded: dict) -> dict:
    """Run one pool entry; record its wall and CPU time, the calibration
    loop's time around it, its exit code and its output."""
    import mixwidth.cli
    import mixwidth.oracles

    cal_before = calibrate()
    out, err = io.StringIO(), io.StringIO()
    code, output = 0, ""
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                code = mixwidth.cli.main(job["argv"])
            else:
                inst = loaded[job["key"]]
                estimate = mixwidth.oracles.numeric_width_estimate(
                    inst.balls, inst.dims.m, inst.dims.k, inst.dims.n,
                    inst.target.q, inst.target.sigma, **job["oracle"],
                ).estimate
                output = repr(estimate)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed job is reported, not fatal
        code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return {
        "key": job["key"],
        "wall_s": wall,
        "cpu_s": cpu,
        "cal_s": (cal_before + calibrate()) / 2,
        "code": code,
        "output": out.getvalue() if job["kind"] == "cli" else output,
        "error": err.getvalue()[-2000:],
    }


def run_rounds(rounds: list, jobs: dict, loaded: dict, seconds: float, tracer=None):
    """Whole rounds while the next one should end within `seconds` (at least
    one round); returns (results, wall seconds)."""
    results = []
    start = time.perf_counter()
    for done, keys in enumerate(rounds):
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / done > seconds:
            break
        for key in keys:
            if tracer is not None:
                tracer.job = len(results)
            results.append(run_job(jobs[key], loaded))
    return results, time.perf_counter() - start


def main(argv: list[str]) -> int:
    manifest_path, mode, seconds = argv[1], argv[2], float(argv[3])
    start = time.perf_counter()
    import mixwidth  # noqa: F401  (the cold import is part of set-up)
    import mixwidth.cli

    import_s = time.perf_counter() - start
    manifest = json.loads(Path(manifest_path).read_text())
    src = Path(manifest["src"]).resolve()
    if Path(mixwidth.__file__).resolve().parent.parent != src:
        print(f"mixwidth was imported from {mixwidth.__file__}, not {src}", file=sys.stderr)
        return 2
    jobs = manifest["jobs"]
    loaded = {}
    for key, job in jobs.items():
        if job.get("path"):
            text = Path(job["path"]).read_text()
            if job["kind"] == "oracle":
                loaded[key] = mixwidth.cli.instance_from_dict(json.loads(text))
    print("ready", flush=True)
    if mode == "setup":
        return 0
    calibrate()  # warm-up: the first loop may import numpy

    if mode == "run":
        results, wall = run_rounds(manifest["rounds"], jobs, loaded, seconds)
        report = {"jobs": results, "loop_s": wall}
    else:
        from tracer import Tracer  # the script's directory is on sys.path

        rounds = manifest["rounds"][:1]
        plain, plain_wall = run_rounds(rounds, jobs, loaded, float("inf"))
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_rounds(rounds, jobs, loaded, float("inf"), tracer)
        finally:
            tracer.uninstall()
        tracer.measure_peaks()
        layers = tracer.metrics()
        layers["cli.import_s"] = import_s
        layers["trace.untraced_wall_s"] = plain_wall
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_ratio"] = traced_wall / plain_wall
        report = {"jobs": plain + traced, "loop_s": traced_wall, "layers": layers,
                  "spans": tracer.spans}
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["import_s"] = import_s
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
