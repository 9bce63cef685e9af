"""Exact rational arithmetic on reciprocal norm exponents.

A norm exponent p in [1, inf] is stored by its reciprocal u = 1/p in [0, 1],
which turns every interpolation condition used by the estimator into an
affine equation over the rationals.  Everything in this module is exact:
predicates and solvers operate on `fractions.Fraction` values and never
round, so strict conditions (interior weights, collinearity, positivity)
are decided correctly even on inputs that sit on a boundary.

`psi` makes the same decisions on integer numerators over per-ball and
per-target denominators, which is far cheaper than `Fraction` arithmetic;
the solvers here (`solve_crossing`, `convex_combine`,
`critical_deviation`, `solve_critical_crossing`, `barycentric`) are the
references its tests and `tests/psi_brute.py` compare it with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Interpolation weights are exact rationals; the admissible interval is
# enforced at each construction site (usually strict interiority in (0, 1)).
Weight = Fraction

HALF = Fraction(1, 2)


def _fraction(x) -> Fraction:
    """x as a Fraction: a Fraction as it is, anything else (an int, a string) converted."""
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class Exponent:
    """A norm exponent p in [1, inf], stored as the exact reciprocal u = 1/p.

    u = 0 encodes p = inf and u = 1 encodes p = 1.
    """

    u: Fraction

    def __post_init__(self) -> None:
        u = _fraction(self.u)
        if not 0 <= u.numerator <= u.denominator:  # 0 <= u <= 1, without Fraction comparisons
            raise ValueError(f"reciprocal exponent must lie in [0, 1], got {u}")
        object.__setattr__(self, "u", u)

    @property
    def is_inf(self) -> bool:
        return self.u == 0

    @property
    def value(self) -> float:
        """The exponent p as a float (math.inf when u = 0)."""
        return math.inf if self.u == 0 else 1.0 / float(self.u)

    def render(self) -> str:
        """Canonical text form: 'inf' or the exponent as a lowest-terms fraction.

        u is in lowest terms, so 1/u is d/n for u = n/d: this is str(1 / u).
        """
        n, d = self.u.numerator, self.u.denominator
        return "inf" if n == 0 else str(d) if n == 1 else f"{d}/{n}"

    def __str__(self) -> str:
        return self.render()


def parse_exponent(text: str) -> Exponent:
    """Parse 'inf', an integer, a fraction 'a/b' or a decimal into an Exponent.

    Decimal literals are converted to the exact rational they denote
    (e.g. '2.5' -> 5/2), never through a binary float.
    """
    if not isinstance(text, str):
        raise ValueError(f"exponent text must be a string, got {type(text).__name__}")
    a, slash, b = text.partition("/")
    if a.isascii() and a.isdigit() and (not slash or b.isascii() and b.isdigit()):
        # ASCII digits, or digits/digits: the exponent a/b from ints, with the
        # messages of the general path (an int past Python's digit limit, or
        # b = 0, is malformed).
        try:
            a, b = int(a), int(b) if slash else 1
        except ValueError:
            raise ValueError(f"malformed exponent {text!r}") from None
        if b == 0:
            raise ValueError(f"malformed exponent {text!r}")
        if a < b:
            raise ValueError(f"exponent must be >= 1, got {text!r}")
        return Exponent(Fraction(b, a))
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return Exponent(Fraction(0))
    try:
        value = Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed exponent {text!r}") from None
    if value < 1:
        raise ValueError(f"exponent must be >= 1, got {text!r}")
    return Exponent(1 / value)


def convex_combine(a: Exponent, b: Exponent, w: Weight) -> Exponent:
    """The exponent whose reciprocal is (1-w)*a.u + w*b.u, exactly."""
    w = Fraction(w)
    if not 0 <= w <= 1:
        raise ValueError(f"weight must lie in [0, 1], got {w}")
    return Exponent((1 - w) * a.u + w * b.u)


def solve_crossing(a: Exponent, b: Exponent, target: Exponent) -> Optional[Weight]:
    """Weight w with (1-w)*a.u + w*b.u = target.u, if strictly interior.

    Returns None when the segment is degenerate (a.u = b.u), when the first
    endpoint already sits on the target, or when the solution falls outside
    the open interval (0, 1).
    """
    if a.u == b.u or a.u == target.u:
        return None
    w = (target.u - a.u) / (b.u - a.u)
    if 0 < w < 1:
        return w
    return None


@dataclass(frozen=True)
class ReciprocalPoint:
    """A point (1/p, 1/theta) in the unit square of reciprocal exponents."""

    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        u, v = _fraction(self.u), _fraction(self.v)
        if not (0 <= u.numerator <= u.denominator and 0 <= v.numerator <= v.denominator):
            raise ValueError(f"reciprocal point must lie in [0, 1]^2, got ({u}, {v})")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def critical_deviation(pt: ReciprocalPoint, q: Exponent, sigma: Exponent) -> Fraction:
    """Signed deviation of pt from the critical line through (1/q,1/sigma) and (1/2,1/2).

    f(pt) = (pt.u - 1/q)/(1/2 - 1/q) - (pt.v - 1/sigma)/(1/2 - 1/sigma), exact.
    Only defined for q > 2 and sigma > 2.
    """
    if q.u >= HALF or sigma.u >= HALF:
        raise ValueError("critical line undefined: requires q > 2 and sigma > 2")
    return (pt.u - q.u) / (HALF - q.u) - (pt.v - sigma.u) / (HALF - sigma.u)


def solve_critical_crossing(
    a: ReciprocalPoint, b: ReciprocalPoint, q: Exponent, sigma: Exponent
) -> Optional[tuple[Weight, ReciprocalPoint]]:
    """Interior crossing of the segment [a, b] with the critical line.

    Returns (w, crossing) where the crossing point (1-w)*a + w*b has zero
    critical deviation, provided all the strict conditions hold: the first
    endpoint is off the line, w lies in (0, 1), and the crossing sits
    strictly between the target reciprocals and 1/2 in both coordinates.
    Returns None otherwise.
    """
    fa = critical_deviation(a, q, sigma)
    if fa == 0:
        return None
    fb = critical_deviation(b, q, sigma)
    if fa == fb:
        return None
    w = fa / (fa - fb)
    if not 0 < w < 1:
        return None
    cross = ReciprocalPoint((1 - w) * a.u + w * b.u, (1 - w) * a.v + w * b.v)
    if not (q.u < cross.u < HALF and sigma.u < cross.v < HALF):
        return None
    return w, cross


def _cross(ax: Fraction, ay: Fraction, bx: Fraction, by: Fraction) -> Fraction:
    return ax * by - ay * bx


def barycentric(
    a: ReciprocalPoint, b: ReciprocalPoint, c: ReciprocalPoint, target: ReciprocalPoint
) -> Optional[tuple[Weight, Weight, Weight]]:
    """Exact barycentric coordinates of target in triangle (a, b, c).

    Returns (ta, tb, tc) with ta+tb+tc = 1 only when the triangle is
    nondegenerate and all three coordinates are strictly positive (target
    strictly inside); None otherwise.
    """
    det = _cross(b.u - a.u, b.v - a.v, c.u - a.u, c.v - a.v)
    if det == 0:
        return None
    tb = _cross(target.u - a.u, target.v - a.v, c.u - a.u, c.v - a.v) / det
    tc = _cross(b.u - a.u, b.v - a.v, target.u - a.u, target.v - a.v) / det
    ta = 1 - tb - tc
    if ta > 0 and tb > 0 and tc > 0:
        return ta, tb, tc
    return None
