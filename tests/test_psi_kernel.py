"""Stage 3's integer core against the `Fraction` references.

`psi._lines` gives each ball's offset from each pair component's line as an
integer numerator over the ball's denominator, and `psi._geometry` turns
a single into its own point, the offsets of an opposite-sign pair into its
weights and crossing point, and a triple into its barycentric numerators
over |det|.  Every one must equal the ball's exponents, or
`solve_crossing` with `convex_combine`, `critical_deviation`,
`solve_critical_crossing` or `barycentric`, as a `Fraction`, and every
float must equal `float(Fraction)` bit for bit.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from mixwidth import Exponent, phi
from mixwidth.phi import phi_ints
from mixwidth.exponents import (
    HALF,
    ReciprocalPoint,
    barycentric,
    convex_combine,
    critical_deviation,
    solve_critical_crossing,
    solve_crossing,
)
from mixwidth.psi import _geometry, _goal_context, _lines
from conftest import build
from helpers import primes_from
from psi_brute import TWO

PRIMES = primes_from(10**6, 40)


def _grid(rng):
    # points and target on the 1/1024 grid, q or sigma = 2 now and then
    uq = HALF if rng.random() < 0.2 else Fraction(rng.randint(1, 511), 1024)
    vs = HALF if rng.random() < 0.2 else Fraction(rng.randint(1, 511), 1024)
    cells = rng.sample(range(1025 * 1025), 8)
    balls = [(Fraction(c // 1025, 1024), Fraction(c % 1025, 1024), rng.uniform(0.5, 2))
             for c in cells]
    return build(64, 64, 100, uq, vs, balls)


def _coprime(rng):
    # every ball coordinate and the target on its own prime denominator near 10^6
    dens = iter(rng.sample(PRIMES, 18))
    uq, vs = (Fraction(rng.randint(1, d // 2), d) for d in (next(dens), next(dens)))
    balls = [(Fraction(rng.randint(0, du), du), Fraction(rng.randint(0, dv), dv),
              rng.uniform(0.5, 2)) for du, dv in zip(dens, dens)]
    return build(64, 64, 100, uq, vs, balls)


def _degenerate(rng):
    # a ball at each goal, balls mirrored through it (the goal on an edge),
    # collinear triples, and points on the levels and the critical line
    uq = HALF if rng.random() < 0.3 else Fraction(rng.randint(1, 7), 16)
    vs = Fraction(rng.randint(1, 8), 16)
    points = {(uq, vs), (HALF, HALF)}
    for goal in ((uq, vs), (HALF, HALF)):
        du, dv = Fraction(rng.randint(-3, 3), 16), Fraction(rng.randint(-3, 3), 16)
        points |= {(goal[0] + du, goal[1] + dv), (goal[0] - du, goal[1] - dv),
                   (goal[0] + 2 * du, goal[1] + 2 * dv)}
    s = Fraction(rng.randint(0, 8), 8)
    points |= {(uq + s * (HALF - uq), vs + s * (HALF - vs)), (uq, Fraction(rng.randint(0, 16), 16)),
               (Fraction(rng.randint(0, 16), 16), HALF)}
    balls = [(u, v, 1.0) for u, v in sorted(points) if 0 <= u <= 1 and 0 <= v <= 1]
    return build(16, 16, 8, uq, vs, balls)


def _instances(seed):
    rng = random.Random(seed)
    return [make(rng) for _ in range(6) for make in (_grid, _coprime, _degenerate)]


def _reference_offset(inst, ball, j):
    q, sigma = inst.target.q, inst.target.sigma
    if j == 5:
        return Fraction(0) if HALF in (q.u, sigma.u) else critical_deviation(ball.point, q, sigma)
    level = {1: q, 2: sigma, 3: TWO, 4: TWO}[j]
    return (ball.p if j in (1, 3) else ball.theta).u - level.u


def _same_float(x, y):
    return x.hex() == y.hex()


def _record(inst, j, row, context):
    """`_geometry`'s record with the profile multiplied in, as stage 3 keeps it:
    (value, indices, weights, p, theta, profile), or None."""
    found = _geometry(inst, j, row, context)
    if found is None:
        return None
    factors, indices, weights, p, theta = found
    profile = phi_ints(*p, *theta, inst.target, inst._params)
    value = profile.value
    for factor in factors:
        value *= factor
    return value, indices, weights, p, theta, profile


@pytest.mark.parametrize("seed", range(3))
def test_single_records(seed):
    for inst in _instances(seed):
        for a, ball in enumerate(inst.balls):
            u, v, d = ball._ints
            assert _geometry(inst, 0, (a, a), None) == ((ball.nu,), (a,), ((1, 1),), (u, d), (v, d))
            assert (Fraction(u, d), Fraction(v, d)) == (ball.p.u, ball.theta.u)
            value, *_, profile = _record(inst, 0, (a, a), None)
            assert profile == phi(ball.p, ball.theta, inst.target, inst.dims)
            assert _same_float(value, profile.value * ball.nu)


@pytest.mark.parametrize("seed", range(3))
def test_offsets_are_scaled_exact_offsets(seed):
    for inst in _instances(seed):
        for j in range(1, 6):
            nums, signs, floats = _lines(inst)[j]
            scale = set()
            for ball, f, sign, x in zip(inst.balls, nums, signs, floats):
                ref = _reference_offset(inst, ball, j)
                assert _same_float(x, float(ref)) and sign == (ref > 0) - (ref < 0)
                # F_i / D_i is one positive multiple of the exact offset
                assert (f == 0) == (ref == 0)
                if ref:
                    scale.add(Fraction(f, ball._ints[2]) / ref)
            assert len(scale) <= 1 and all(s > 0 for s in scale), (j, scale)


@pytest.mark.parametrize("seed", range(3))
def test_pair_weights_and_crossings(seed):
    for inst in _instances(seed):
        q, sigma = inst.target.q, inst.target.sigma
        for j in range(1, 6):
            nums, signs, _ = _lines(inst)[j]
            level = {1: q, 2: sigma, 3: TWO, 4: TWO}.get(j)
            for ia, ib in permutations(range(len(inst.balls)), 2):
                a, b = inst.balls[ia], inst.balls[ib]
                if j == 5:
                    ref = solve_critical_crossing(a.point, b.point, q, sigma) if signs[ia] else None
                else:
                    on_p = j in (1, 3)
                    w = solve_crossing(*((a.p, b.p) if on_p else (a.theta, b.theta)), level)
                    ref = None if w is None else (w, ReciprocalPoint(
                        level.u if on_p else convex_combine(a.p, b.p, w).u,
                        convex_combine(a.theta, b.theta, w).u if on_p else level.u))
                if signs[ia] * signs[ib] >= 0:
                    # the pipeline admits exactly the opposite-sign pairs
                    assert ref is None or j == 5 and HALF in (q.u, sigma.u)
                    continue
                found = _record(inst, j, (ia, ib), nums)
                assert (found is None) == (ref is None), (j, ia, ib)
                if found is None:
                    continue
                value, _, ((wa, den), (wb, den_b)), (un, ud), (vn, vd), profile = found
                w, cross = ref
                assert den == den_b == ud == vd > 0
                assert (Fraction(wa, den), Fraction(wb, den)) == (1 - w, w)
                assert (Fraction(un, ud), Fraction(vn, vd)) == (cross.u, cross.v)
                assert _same_float(wa / den, float(1 - w)) and _same_float(wb / den, float(w))
                assert profile == phi(Exponent(cross.u), Exponent(cross.v), inst.target, inst.dims)
                assert _same_float(value, profile.value * (a.nu ** float(1 - w) * b.nu ** float(w)))


@pytest.mark.parametrize("seed", range(3))
def test_barycentric_numerators(seed):
    hits = 0
    for inst in _instances(seed):
        points = [b.point for b in inst.balls]
        for j, goal in ((6, (inst.target.q.u, inst.target.sigma.u)), (7, (HALF, HALF))):
            context, profile = _goal_context(inst, j)
            assert profile == phi(Exponent(goal[0]), Exponent(goal[1]), inst.target, inst.dims)
            for row in combinations(range(len(points)), 3):
                ref = barycentric(*(points[i] for i in row), ReciprocalPoint(*goal))
                found = _record(inst, j, row, context)
                assert (found is None) == (ref is None), (j, row)
                if found is None:
                    continue
                hits += 1
                value, indices, weights, p, theta, at_goal = found
                assert indices == row and at_goal == profile
                assert (Fraction(*p), Fraction(*theta)) == goal
                assert all(den == weights[0][1] > 0 for _, den in weights)
                assert tuple(Fraction(n, d) for n, d in weights) == ref
                assert all(_same_float(n / d, float(t)) for (n, d), t in zip(weights, ref))
                powers = [inst.balls[i].nu ** float(t) for i, t in zip(row, ref)]
                assert _same_float(value, profile.value * powers[0] * powers[1] * powers[2])
    assert hits
