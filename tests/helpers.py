"""Helpers that only the tests use, kept out of the package API.

`identity` and `compose` check the group action, `solve_rl_loglinear`
relates triple certificates to the witness grid, `is_general_position` is
the exact non-degeneracy predicate on reciprocal points and
`perturb_to_general_position` exercises it, `single_ball_width_estimate`
spells out the single-ball estimate nu * Phi, `primes_from` gives
pairwise-coprime denominators, and `point` is a ball's reciprocal point
for the `Fraction` references.
"""

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from mixwidth.exponents import (
    HALF,
    Exponent,
    ReciprocalPoint,
    _cross,
    critical_deviation,
)
from mixwidth.phi import Dimensions, TargetSpace, phi
from mixwidth.witness import GroupElement

#: A violated general-position condition: (condition number 1-4, offending indices).
Violation = tuple[int, tuple[int, ...]]


def point(ball) -> ReciprocalPoint:
    """The reciprocal point (1/p, 1/theta) of a `BallSpec`."""
    return ReciprocalPoint(ball.p.u, ball.theta.u)


def primes_from(start: int, count: int) -> list[int]:
    """The `count` least primes >= start, by trial division."""
    primes, n = [], max(start, 2)
    while len(primes) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
        n += 1
    return primes


def identity(m: int, k: int) -> GroupElement:
    """The identity element: no permutation, every sign +1."""
    return GroupElement(tuple(range(m)), tuple(range(k)), (1,) * m, (1,) * k)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """The element f with f(x) = g(h(x))."""
    rp = tuple(h.row_perm[i] for i in g.row_perm)
    cp = tuple(h.col_perm[j] for j in g.col_perm)
    rs = tuple(
        g.row_signs[i] * h.row_signs[g.row_perm[i]] for i in range(len(g.row_perm))
    )
    cs = tuple(
        g.col_signs[j] * h.col_signs[g.col_perm[j]] for j in range(len(g.col_perm))
    )
    return GroupElement(rp, cp, rs, cs)


def single_ball_width_estimate(ball, target: TargetSpace, dims: Dimensions) -> float:
    """Order estimate of the n-width of nu * B_{p,theta}: nu * Phi(p, theta)."""
    return ball.nu * phi(ball.p, ball.theta, target, dims).value


def solve_rl_loglinear(
    ratio_ab: float,
    ratio_bg: float,
    exps: tuple,
) -> Optional[tuple[float, float]]:
    """Solve ratio_ab = r^e1 * l^e2, ratio_bg = r^e3 * l^e4 for positive (r, l).

    `exps` holds the four reciprocal-exponent differences (e1, e2, e3, e4).
    The rows (e1, e2) and (e3, e4) must be linearly independent; dependence
    is detected exactly and yields None.  The returned (r, l) are positive
    reals, not rounded to block sizes.
    """
    if not (ratio_ab > 0 and ratio_bg > 0):
        raise ValueError("ratios must be positive")
    e1, e2, e3, e4 = (Fraction(e) for e in exps)
    det = e1 * e4 - e2 * e3
    if det == 0:
        return None
    la, lb = math.log(ratio_ab), math.log(ratio_bg)
    fdet = float(det)
    log_r = (la * float(e4) - float(e2) * lb) / fdet
    log_l = (float(e1) * lb - la * float(e3)) / fdet
    return math.exp(log_r), math.exp(log_l)


def _on_segment(s: ReciprocalPoint, a: ReciprocalPoint, b: ReciprocalPoint) -> bool:
    """True when s lies on the closed segment [a, b] (exact test)."""
    if _cross(b.u - a.u, b.v - a.v, s.u - a.u, s.v - a.v) != 0:
        return False
    return (
        min(a.u, b.u) <= s.u <= max(a.u, b.u)
        and min(a.v, b.v) <= s.v <= max(a.v, b.v)
    )


def is_general_position(
    points: Sequence[ReciprocalPoint], q: Exponent, sigma: Exponent
) -> tuple[bool, list[Violation]]:
    """Check the four non-degeneracy conditions on a family of reciprocal points.

    1. no coordinate equals 1/2, 1/q (u side) or 1/2, 1/sigma (v side), and,
       when q > 2 and sigma > 2, no point lies on the critical line;
    2. all u coordinates distinct and all v coordinates distinct;
    3. none of (1/2,1/2), (1/2,1/sigma), (1/q,1/2), (1/q,1/sigma) lies on a
       segment between two of the points;
    4. no three points collinear.

    Returns (ok, violations) with one entry per violated condition instance.
    Duplicate points are invalid input.
    """
    pts = list(points)
    seen: dict[tuple[Fraction, Fraction], int] = {}
    for i, pt in enumerate(pts):
        key = (pt.u, pt.v)
        if key in seen:
            raise ValueError(f"duplicate points at indices {seen[key]} and {i}")
        seen[key] = i

    critical = q.u < HALF and sigma.u < HALF
    violations: list[Violation] = []

    for i, pt in enumerate(pts):
        if pt.u in (HALF, q.u) or pt.v in (HALF, sigma.u):
            violations.append((1, (i,)))
        elif critical and critical_deviation(pt, q, sigma) == 0:
            violations.append((1, (i,)))

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].u == pts[j].u or pts[i].v == pts[j].v:
                violations.append((2, (i, j)))

    specials = (
        ReciprocalPoint(HALF, HALF),
        ReciprocalPoint(HALF, sigma.u),
        ReciprocalPoint(q.u, HALF),
        ReciprocalPoint(q.u, sigma.u),
    )
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if any(_on_segment(s, pts[i], pts[j]) for s in specials):
                violations.append((3, (i, j)))

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for l in range(j + 1, len(pts)):
                if (
                    _cross(
                        pts[j].u - pts[i].u,
                        pts[j].v - pts[i].v,
                        pts[l].u - pts[i].u,
                        pts[l].v - pts[i].v,
                    )
                    == 0
                ):
                    violations.append((4, (i, j, l)))

    return not violations, violations


def perturb_to_general_position(
    points: Sequence[ReciprocalPoint],
    q: Exponent,
    sigma: Exponent,
    m: int,
    k: int,
    seed: int = 0,
) -> list[ReciprocalPoint]:
    """Move the points into general position by tiny rational jitters.

    Every coordinate moves by strictly less than log 2 / log(m*k), the
    magnitude under which each mixed-norm ball changes only by a factor of
    two in either direction.  Points already in general position are
    returned unchanged.  Deterministic for a fixed seed; the jitter step is
    halved on repeated failures.
    """
    if m * k < 2:
        raise ValueError("requires m*k >= 2")
    ok, _ = is_general_position(points, q, sigma)
    if ok:
        return list(points)

    # Rational base step: 1/ceil(2*log2(mk)) <= 1/(2*log2(mk)) < log2/log(mk).
    base = Fraction(1, max(2, math.ceil(2 * math.log2(m * k))))
    rng = random.Random(seed)
    denom = 2**20
    for halving in range(10):
        step = base / 2**halving
        for _ in range(8):
            proposal = []
            for pt in points:
                du = step * Fraction(rng.randint(1, denom - 1), denom)
                dv = step * Fraction(rng.randint(1, denom - 1), denom)
                if rng.random() < 0.5:
                    du = -du
                if rng.random() < 0.5:
                    dv = -dv
                u = pt.u + du
                if not 0 <= u <= 1:
                    u = pt.u - du
                v = pt.v + dv
                if not 0 <= v <= 1:
                    v = pt.v - dv
                proposal.append(ReciprocalPoint(u, v))
            try:
                ok, _ = is_general_position(proposal, q, sigma)
            except ValueError:
                continue
            if ok:
                return proposal
    raise RuntimeError("could not reach general position; input is pathological")
