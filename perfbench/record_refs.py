"""Record the reference output of every pool entry at the current commit.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Runs each entry's job in this process with mixwidth from src/, requires it
to exit 0 and to pass the checks that do not need a reference (certificate
replay, 0 suite failures, the oracle's band around psi), and writes
perfbench/refs/<workload>.json. Re-record only when the program's intended
output changes; a speed-up must pass against the existing references.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, machine, make_job
from workloads import WORKLOADS, pool_key

from check import check, extract
from child import run_job


def reference(job: dict, result: dict):
    ref = extract(job["check"], result["output"])
    if job["check"] == "oracle":
        from mixwidth.cli import load_instance
        from mixwidth.psi import psi

        ref = dict(ref, psi=psi(load_instance(job["path"])).value)
    return ref


def record(workload) -> None:
    work = HERE / "work" / f"refs-{workload.name}"
    work.mkdir(parents=True, exist_ok=True)
    entries = {}
    try:
        for slot in range(len(workload.slots)):
            for variant in range(workload.variants):
                key = pool_key(slot, variant)
                job = make_job(workload, key, work)
                loaded = {}
                if job["kind"] == "oracle":
                    import mixwidth.cli

                    loaded[key] = mixwidth.cli.load_instance(job["path"])
                result = run_job(job, loaded)
                if result["code"] != 0:
                    raise SystemExit(f"{workload.name} {key}: {result['error']}")
                ref = reference(job, result)
                why = check(job["check"], result["output"], ref)
                if why is not None:
                    raise SystemExit(f"{workload.name} {key}: {why}")
                entries[key] = {"digest": job["digest"], "ref": ref}
                print(f"{workload.name} {key} {result['wall_s']:.2f}s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = HERE / "refs" / f"{workload.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"machine": machine(None), "entries": entries}, indent=0) + "\n")


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        record(WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
