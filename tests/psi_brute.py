"""Brute-force component scans: the exact reference for `mixwidth.psi`.

Every single ball, ordered pair and unordered triple is decided and valued
with the exact scalar code, in tie-break order, and the first strict minimum
wins.  The scans share no code with the pipeline beyond the exact
primitives it confirms with.
"""

import math
from fractions import Fraction
from itertools import combinations

from mixwidth.exponents import (
    HALF,
    Exponent,
    ReciprocalPoint,
    barycentric,
    convex_combine,
    solve_critical_crossing,
    solve_crossing,
)
from mixwidth.phi import phi
from mixwidth.psi import Certificate
from helpers import point

TWO = Exponent(HALF)


def _singles(inst):
    best, cert = math.inf, None
    for i, ball in enumerate(inst.balls):
        profile = phi(ball.p, ball.theta, inst.target, inst.dims)
        value = ball.nu * profile.value
        if value < best:
            best = value
            cert = Certificate(0, (i,), (Fraction(1),), ball.p, ball.theta, profile, value)
    return best, cert


def _pair_value(nu_a, nu_b, w, profile):
    return nu_a ** float(1 - w) * nu_b ** float(w) * profile.value


def _pairs(inst, j):
    on_p = j in (1, 3)
    level = {1: inst.target.q, 2: inst.target.sigma, 3: TWO, 4: TWO}[j]
    best, cert = math.inf, None
    for ia, a in enumerate(inst.balls):
        for ib, b in enumerate(inst.balls):
            if ia == ib:
                continue
            if on_p:
                w = solve_crossing(a.p, b.p, level)
            else:
                w = solve_crossing(a.theta, b.theta, level)
            if w is None:
                continue
            if on_p:
                pe, te = level, convex_combine(a.theta, b.theta, w)
            else:
                pe, te = convex_combine(a.p, b.p, w), level
            profile = phi(pe, te, inst.target, inst.dims)
            value = _pair_value(a.nu, b.nu, w, profile)
            if value < best:
                best = value
                cert = Certificate(j, (ia, ib), (1 - w, w), pe, te, profile, value)
    return best, cert


def _critical(inst):
    target = inst.target
    if target.q.u == HALF or target.sigma.u == HALF:
        return math.inf, None
    best, cert = math.inf, None
    for ia, a in enumerate(inst.balls):
        for ib, b in enumerate(inst.balls):
            if ia == ib:
                continue
            hit = solve_critical_crossing(point(a), point(b), target.q, target.sigma)
            if hit is None:
                continue
            w, cross = hit
            pe, te = Exponent(cross.u), Exponent(cross.v)
            profile = phi(pe, te, target, inst.dims)
            value = _pair_value(a.nu, b.nu, w, profile)
            if value < best:
                best = value
                cert = Certificate(5, (ia, ib), (1 - w, w), pe, te, profile, value)
    return best, cert


def _triples(inst, j):
    target = inst.target
    if j == 6:
        goal = ReciprocalPoint(target.q.u, target.sigma.u)
        pe, te = target.q, target.sigma
    else:
        goal = ReciprocalPoint(HALF, HALF)
        pe, te = TWO, TWO
    profile = phi(pe, te, target, inst.dims)
    points = [point(b) for b in inst.balls]
    best, cert = math.inf, None
    for triple in combinations(range(len(points)), 3):
        taus = barycentric(*(points[i] for i in triple), goal)
        if taus is None:
            continue
        value = profile.value
        for i, w in zip(triple, taus):
            value *= inst.balls[i].nu ** float(w)
        if value < best:
            best = value
            cert = Certificate(j, triple, taus, pe, te, profile, value)
    return best, cert


def brute_component(inst, j):
    """Component j by exhaustive exact scan."""
    if j == 0:
        return _singles(inst)
    if j == 5:
        return _critical(inst)
    if j in (6, 7):
        return _triples(inst, j)
    return _pairs(inst, j)
