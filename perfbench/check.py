"""Output checks: stored references and certificate replay.

`extract(kind, output)` reduces a job's output to the fields that are
compared with the reference recorded for its pool entry; `check` returns
None when a job's output is correct, else a one-line reason. Rules:

* estimate and sweep: psi, the components and the witness bound to relative
  1e-12; the argmin tie set, certificate indices, weights and exponents
  exactly. Every certificate must also replay: its exact weights combine
  the balls' reciprocal points into its (1/p, 1/theta), and its value equals
  prod(nu_i^w_i) * phi(p, theta) to relative 1e-12, whichever algorithm
  produced it.
* verify: the suites, their trial counts and 0 failures; worst slacks
  within 1e-12 of the reference.
* oracle: the heuristic estimate within 5% of the reference (a float-order
  change may move the seeded search to another local optimum) and inside
  the band 0.25 * psi <= estimate <= 1.5 * psi that the tests use.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

REL = 1e-12
VERIFY_ABS = 1e-12
ORACLE_REL = 0.05
ORACLE_BAND = (0.25, 1.5)


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def extract(kind: str, output: str):
    """The reference-comparable part of one job's output (kind: the job's `check`)."""
    if kind == "estimate":
        report = json.loads(output)
        return {
            "psi": report["psi"],
            "components": report["components"],
            "argmin": report["argmin"],
            "certificates": {
                j: {key: c[key] for key in ("indices", "weights", "p", "theta")}
                for j, c in report["certificates"].items()
            },
        }
    if kind == "sweep":
        return [[_cell(x) for x in row] for row in csv.reader(io.StringIO(output))]
    if kind == "verify":
        return [
            [s["name"], s["trials"], s["failures"], s["worst_slack"]]
            for s in json.loads(output)["suites"]
        ]
    return {"estimate": float(output)}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL * max(abs(a), abs(b))


def _same(a, b) -> bool:
    """Equal structure; floats to relative REL, everything else exact."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b)
    return type(a) is type(b) and a == b


def replay_certificates(report: dict) -> str | None:
    """Re-derive every certificate of an estimate report from its instance."""
    from mixwidth.exponents import parse_exponent
    from mixwidth.phi import Dimensions, TargetSpace, phi

    inst = report["instance"]
    dims = Dimensions(inst["m"], inst["k"], inst["n"])
    target = TargetSpace(parse_exponent(inst["q"]), parse_exponent(inst["sigma"]))
    points = [(parse_exponent(b["p"]).u, parse_exponent(b["theta"]).u) for b in inst["balls"]]
    components = report["components"]
    finite = [c for c in components if c != "inf"]
    if not finite or not _close(report["psi"], min(finite)):
        return f"psi {report['psi']} is not the minimum component"
    for j, cert in report["certificates"].items():
        weights = [Fraction(w) for w in cert["weights"]]
        p, theta = parse_exponent(cert["p"]), parse_exponent(cert["theta"])
        if sum(weights) != 1 or any(w <= 0 for w in weights):
            return f"certificate {j}: weights {cert['weights']} are not a convex combination"
        u = sum(w * points[i][0] for w, i in zip(weights, cert["indices"]))
        v = sum(w * points[i][1] for w, i in zip(weights, cert["indices"]))
        if (u, v) != (p.u, theta.u):
            return f"certificate {j}: weights do not combine to (1/p, 1/theta)"
        profile = phi(p, theta, target, dims).value
        value = profile * math.prod(
            inst["balls"][i]["nu"] ** float(w) for w, i in zip(weights, cert["indices"])
        )
        if not (_close(value, cert["value"]) and _close(value, components[int(j)])
                and _close(profile, cert["phi_value"])):
            return f"certificate {j}: replay gives {value!r}, report has {cert['value']!r}"
    return None


def check(kind: str, output: str, ref) -> str | None:
    """None if `output` is correct against reference `ref`, else why not."""
    try:
        got = extract(kind, output)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    if kind == "verify":
        if [s[:2] for s in got] != [s[:2] for s in ref]:
            return "suites or trial counts differ from the reference"
        for name, _, failures, _ in got:
            if failures:
                return f"suite {name}: {failures} failures"
        for (name, _, _, slack), (_, _, _, want) in zip(got, ref):
            if abs(slack - want) > VERIFY_ABS:
                return f"suite {name}: worst slack {slack!r}, reference {want!r}"
        return None
    if kind == "oracle":
        est, want, psi = got["estimate"], ref["estimate"], ref["psi"]
        if abs(est - want) > ORACLE_REL * want:
            return f"estimate {est!r} is not within {ORACLE_REL:.0%} of {want!r}"
        if not ORACLE_BAND[0] * psi <= est <= ORACLE_BAND[1] * psi:
            return f"estimate {est!r} is outside the band around psi {psi!r}"
        return None
    if not _same(got, ref):
        return "output differs from the reference"
    if kind == "estimate":
        return replay_certificates(json.loads(output))
    return None
