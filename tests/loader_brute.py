"""The field-by-field instance loader: the reference for `mixwidth.cli.instance_from_dict`.

Every exponent is parsed where it appears, every ball is a `BallSpec` of its
own, and `validate_instance` coalesces the family afterwards.  The float
reciprocals are `float(Fraction)` and the integer records are the least
common denominator form of the two reciprocals, as `Instance._ball_arrays`
and `BallSpec._ints` were computed before the loader built them from one
parse per distinct text.
"""

import math
import sys

import numpy as np

from mixwidth.exponents import Exponent, parse_exponent
from mixwidth.phi import Dimensions, TargetSpace
from mixwidth.psi import BallSpec, Instance, validate_instance


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


def reference_instance(data: dict) -> Instance:
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


def reference_ints(ball: BallSpec) -> tuple[int, int, int]:
    """(U, V, D): the reciprocal point is (U/D, V/D), over its least common denominator D."""
    u, v = ball.p.u, ball.theta.u
    d = math.lcm(u.denominator, v.denominator)
    return u.numerator * (d // u.denominator), v.numerator * (d // v.denominator), d


def reference_ball_arrays(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float u = 1/p, v = 1/theta and log nu per ball."""
    u, v, nu = zip(*((float(b.p.u), float(b.theta.u), b.nu) for b in inst.balls))
    return np.array(u), np.array(v), np.log(nu)
