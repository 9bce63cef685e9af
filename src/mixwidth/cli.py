"""Batch front end: estimate reports, n-sweeps, verification and witness runs.

Instance files are JSON objects

    {"m": 4, "k": 4, "n": 4, "q": "2", "sigma": "2",
     "balls": [{"p": "inf", "theta": "2", "nu": 1.0},
               {"p": "1",   "theta": "2", "nu": 4.0}]}

with exponents written in the exact text grammar ('inf', an integer, 'a/b'
or a decimal) so rationals survive serialization.  Reports render every
interpolation weight as an exact fraction string and serialize infinite
component values as the string "inf".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .exponents import Exponent, parse_exponent
from .phi import ConsistencyError, Dimensions, TargetSpace
from .psi import (
    REL_TIE_TOL,
    BallSpec,
    Certificate,
    Instance,
    PsiEstimate,
    psi,
    validate_instance,
)
from .witness import WitnessGrid, best_witness_lower_bound

SCHEMA = "mixwidth-report/1"

CSV_COLUMNS = (
    ["n", "psi", "argmin_set"]
    + [f"psi_{j}" for j in range(8)]
    + ["witness_lb"]
)

# The most rows one sweep may have: a sweep holds all its rows before it
# prints them, and the default range 0..m*k/2 can be far longer.
SWEEP_ROW_LIMIT = 1 << 20


# ---------------------------------------------------------------------------
# instance (de)serialization
# ---------------------------------------------------------------------------


def _parse_exponent_field(value, field: str) -> Exponent:
    if isinstance(value, (int, float)):
        value = repr(value)
    if not isinstance(value, str):
        raise ValueError(f"{field}: expected an exponent string, got {value!r}")
    try:
        return parse_exponent(value)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _parse_int_field(data: dict, field: str) -> int:
    if field not in data:
        raise ValueError(f"missing field {field!r}")
    value = data[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    return value


def instance_from_dict(data: dict) -> Instance:
    """Build and validate an Instance from the JSON object layout."""
    if not isinstance(data, dict):
        raise ValueError("instance file must contain a JSON object")
    m = _parse_int_field(data, "m")
    k = _parse_int_field(data, "k")
    n = _parse_int_field(data, "n")
    if "q" not in data or "sigma" not in data:
        raise ValueError("missing field 'q' or 'sigma'")
    target = TargetSpace(
        _parse_exponent_field(data["q"], "q"),
        _parse_exponent_field(data["sigma"], "sigma"),
    )
    raw_balls = data.get("balls")
    if not isinstance(raw_balls, list) or not raw_balls:
        raise ValueError("'balls' must be a nonempty list")
    balls = []
    for i, entry in enumerate(raw_balls):
        if not isinstance(entry, dict):
            raise ValueError(f"balls[{i}]: expected an object")
        for key in ("p", "theta", "nu"):
            if key not in entry:
                raise ValueError(f"balls[{i}].{key}: missing")
        nu = entry["nu"]
        if not isinstance(nu, (int, float)) or isinstance(nu, bool):
            raise ValueError(f"balls[{i}].nu: expected a number, got {nu!r}")
        if isinstance(nu, int) and abs(nu) > sys.float_info.max:
            raise ValueError(f"balls[{i}].nu: integer too large for a float")
        balls.append(
            BallSpec(
                _parse_exponent_field(entry["p"], f"balls[{i}].p"),
                _parse_exponent_field(entry["theta"], f"balls[{i}].theta"),
                float(nu),
            )
        )
    return validate_instance(Instance(Dimensions(m, k, n), target, tuple(balls)))


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return instance_from_dict(data)


def instance_to_dict(inst: Instance) -> dict:
    return {
        "m": inst.dims.m,
        "k": inst.dims.k,
        "n": inst.dims.n,
        "q": inst.target.q.render(),
        "sigma": inst.target.sigma.render(),
        "balls": [
            {"p": b.p.render(), "theta": b.theta.render(), "nu": b.nu}
            for b in inst.balls
        ],
    }


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _finite_or_inf(value: float):
    return "inf" if math.isinf(value) else value


def _certificate_dict(cert: Certificate) -> dict:
    return {
        "j": cert.j,
        "indices": list(cert.indices),
        "weights": [str(w) for w in cert.weights],
        "p": cert.p.render(),
        "theta": cert.theta.render(),
        "phi_value": cert.profile.value,
        "phi_branches": list(cert.profile.branches),
        "value": cert.value,
    }


def _finite(est: PsiEstimate) -> PsiEstimate:
    if math.isinf(est.value):
        raise ValueError("psi overflows the float range for these radii")
    return est


def _finite_psi(inst: Instance) -> PsiEstimate:
    return _finite(psi(inst))


def estimate_report(inst: Instance, est: PsiEstimate) -> dict:
    return {
        "schema": SCHEMA,
        "mode": "estimate",
        "instance": instance_to_dict(inst),
        "psi": est.value,
        "components": [_finite_or_inf(v) for v in est.components],
        "argmin": list(est.argmin),
        "n_zero_convention": inst.dims.n == 0,
        "certificates": {str(j): _certificate_dict(c) for j, c in est.certificates.items()},
    }


def _sweep_row(n: int, est: PsiEstimate, witness: WitnessGrid) -> dict:
    est = _finite(est)
    lb, _, _ = witness.best(n)
    return {
        "n": n,
        "psi": est.value,
        "argmin_set": "|".join(str(j) for j in est.argmin),
        **{f"psi_{j}": _finite_or_inf(est.components[j]) for j in range(8)},
        "witness_lb": lb,
    }


def run_sweep(inst: Instance, n_from: int, n_to: int) -> list[dict]:
    """One row per n; the psi column is checked to be nonincreasing.

    `psi_sweep` and one `WitnessGrid` find once what no row changes.  A
    range of more than SWEEP_ROW_LIMIT rows is refused.
    """
    half = inst.dims.m * inst.dims.k // 2
    if not (0 <= n_from <= n_to <= half):
        raise ValueError(f"sweep range must satisfy 0 <= from <= to <= {half}")
    if n_to - n_from + 1 > SWEEP_ROW_LIMIT:
        raise ValueError(f"sweep of {n_to - n_from + 1} rows exceeds the limit of {SWEEP_ROW_LIMIT}; "
                         "narrow it with --n-from and --n-to")
    from .sweep import psi_sweep

    ns = range(n_from, n_to + 1)
    witness = WitnessGrid(inst)
    rows = [_sweep_row(n, est, witness) for n, est in zip(ns, psi_sweep(inst, ns))]
    for prev, cur in zip(rows, rows[1:]):
        if cur["psi"] > prev["psi"] * (1.0 + REL_TIE_TOL):
            raise ConsistencyError(
                f"psi not monotone: n={prev['n']} -> {prev['psi']}, "
                f"n={cur['n']} -> {cur['psi']}"
            )
    return rows


def witness_report(inst: Instance) -> dict:
    est = _finite_psi(inst)
    if est.value == 0.0:
        raise ValueError("psi underflows to 0 for these radii, so the witness ratio is undefined")
    lb, r, l = best_witness_lower_bound(inst)
    return {
        "schema": SCHEMA,
        "mode": "witness",
        "instance": instance_to_dict(inst),
        "psi": est.value,
        "witness_lb": lb,
        "r": r,
        "l": l,
        "ratio": lb / est.value,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: row[key] for key in CSV_COLUMNS})
    return buf.getvalue()


def _estimate_table(inst: Instance, est: PsiEstimate) -> str:
    lines = [
        f"instance: m={inst.dims.m} k={inst.dims.k} n={inst.dims.n} "
        f"q={inst.target.q} sigma={inst.target.sigma} balls={len(inst.balls)}",
        f"psi = {est.value!r}",
        "argmin = {" + ", ".join(str(j) for j in est.argmin) + "}",
    ]
    if inst.dims.n == 0:
        lines.append("note: n = 0 evaluated under the 0-width convention")
    lines.append(f"{'j':>2}  {'value':<22}  certificate")
    for j in range(8):
        value = est.components[j]
        if j in est.certificates:
            c = est.certificates[j]
            weights = ", ".join(str(w) for w in c.weights)
            detail = (
                f"balls={c.indices} weights=({weights}) at (p={c.p}, theta={c.theta}) "
                f"profile={c.profile.value!r} branches={c.profile.branches}"
            )
        else:
            detail = "-"
        lines.append(f"{j:>2}  {('inf' if math.isinf(value) else repr(value)):<22}  {detail}")
    return "\n".join(lines)


def _sweep_table(rows: list[dict]) -> str:
    cells = [[str(row[c]) for c in CSV_COLUMNS] for row in rows]
    widths = [
        max(len(CSV_COLUMNS[i]), *(len(r[i]) for r in cells)) if cells else len(CSV_COLUMNS[i])
        for i in range(len(CSV_COLUMNS))
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(CSV_COLUMNS, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _verify_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'suite':<{width}}  {'trials':>6}  {'failures':>8}  worst_slack"]
    for r in results:
        lines.append(
            f"{r.name:<{width}}  {r.trials:>6}  {r.failures:>8}  {r.worst_slack:.3e}"
        )
    passed = sum(r.passed for r in results)
    lines.append(
        f"verify: {'PASS' if passed == len(results) else 'FAIL'} "
        f"({passed}/{len(results)} suites)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _SuiteNames:
    """`verify.SUITE_NAMES` as argparse choices: verify loads only when an option or the help reads them."""

    def __iter__(self):
        from .verify import SUITE_NAMES

        return iter(SUITE_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixwidth",
        description=(
            "Order estimates of Kolmogorov n-widths of intersections of "
            "mixed-norm balls, with verification suites."
        ),
    )
    parser.add_argument("instance", nargs="?", help="JSON instance file")
    parser.add_argument(
        "--mode",
        choices=("estimate", "sweep", "verify", "witness"),
        default="estimate",
    )
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-from", type=int, default=None, help="sweep start (default 0)")
    parser.add_argument(
        "--n-to", type=int, default=None,
        help=f"sweep end (default m*k/2); a sweep has at most {SWEEP_ROW_LIMIT} rows",
    )
    parser.add_argument(
        "--trials", type=int, default=500, help="trials per verification suite (at least 1)"
    )
    # Set after add_argument, whose metavar check would read the names.
    parser.add_argument(
        "--self-test-corrupt",
        default=None,
        help="deliberately skew one verify suite (harness self-test)",
    ).choices = _SuiteNames()
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line and return its exit code.

    0 success, 1 invalid input, 2 bad arguments (from argparse), 3 a verify
    suite failed, 4 a ConsistencyError, 141 stdout closed by its reader
    (128 + SIGPIPE); any other exception is a bug and propagates with its
    traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.mode in ("verify", "witness"):
        parser.error(f"argument --format: csv is not a format of --mode {args.mode} (choose table or json)")
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except ValueError as exc:
        return _fail(str(exc), 1)
    except ConsistencyError as exc:
        return _fail(f"internal consistency failure: {exc}", 4)
    except BrokenPipeError:
        # What is still buffered goes to os.devnull, so the exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _fail(message: str, code: int) -> int:
    print("mixwidth: error: " + " ".join(message.split()), file=sys.stderr)
    return code


def _dispatch(args) -> int:
    if args.mode == "verify":
        from .verify import run_suites

        results = run_suites(
            seed=args.seed, trials=args.trials, corrupt=args.self_test_corrupt
        )
        if args.format == "json":
            payload = {
                "schema": SCHEMA,
                "mode": "verify",
                "seed": args.seed,
                "suites": [{**asdict(r), "passed": r.passed} for r in results],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(_verify_table(results))
        return 0 if all(r.passed for r in results) else 3

    if args.instance is None:
        raise ValueError(f"mode {args.mode!r} requires an instance file")
    inst = load_instance(args.instance)

    if args.mode == "estimate":
        if args.format == "json":
            print(json.dumps(estimate_report(inst, _finite_psi(inst)), indent=2))
        elif args.format == "csv":
            print(_rows_to_csv([_sweep_row(inst.dims.n, _finite_psi(inst), WitnessGrid(inst))]), end="")
        else:
            print(_estimate_table(inst, _finite_psi(inst)))
        return 0

    if args.mode == "sweep":
        half = inst.dims.m * inst.dims.k // 2
        n_from = 0 if args.n_from is None else args.n_from
        n_to = half if args.n_to is None else args.n_to
        rows = run_sweep(inst, n_from, n_to)
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, "mode": "sweep", "rows": rows}, indent=2))
        elif args.format == "csv":
            print(_rows_to_csv(rows), end="")
        else:
            print(_sweep_table(rows))
        return 0

    # witness
    report = witness_report(inst)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(
            f"psi = {report['psi']!r}\n"
            f"witness lower bound = {report['witness_lb']!r} "
            f"at r={report['r']}, l={report['l']}\n"
            f"ratio = {report['ratio']!r}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
