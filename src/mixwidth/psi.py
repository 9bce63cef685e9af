"""Order estimate of the n-width of an intersection of mixed-norm balls.

For a finite family of balls nu_a * B_{p_a,theta_a} the width order estimate
is Psi = min_{0<=j<=7} Psi_j.  Psi_0 scans single balls; Psi_1..Psi_5 scan
ordered pairs whose reciprocal segment crosses one of the distinguished
lines (1/q, 1/sigma, 1/2 on either coordinate, or the critical line); Psi_6
and Psi_7 scan triples whose reciprocal triangle strictly contains
(1/q, 1/sigma) or (1/2, 1/2).  Each finite component carries a certificate:
the indices, the exact interpolation weights, and the exponent pair at
which the single-ball profile is evaluated, which together reproduce the
component value.

Every component runs one candidate pipeline.  (1) Admission is exact on
per-ball quantities (the side of a level or of the critical line), or a
float screen with margins far above its error, whose uncertain candidates
are kept as risky.  (2) Float log-values of the admitted candidates come at
once, with `log_phi_array` for the profile.  (3) The exact scalar code
re-values every risky candidate (uncertain, or with a float product that
might over- or underflow) and every candidate within one log-space window
of the least non-risky log-value, and the tie-break order picks among them.
The window is twice the float error budget, so the result is that of a
full exact scan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .exponents import HALF, TWO, Exponent, ReciprocalPoint, barycentric, critical_deviation
from .phi import Dimensions, PhiValue, TargetSpace, log_phi_array, phi

REL_TIE_TOL = 1e-9

# Window: _LOG_WINDOW * (1 + max |log nu|) covers the float error of weights
# and barycentric coordinates (< ~1e-6 relative); _PHI_WINDOW times its log
# size and conditioning 1/(1/2 - 1/q) covers that of the float profile.
_LOG_WINDOW, _PHI_WINDOW = 1e-5, 1e-12
# Below this sum of |log factor| no float factor or partial product can leave
# the normal range (e^-708 .. e^709); above it a candidate is always rescanned.
_LOG_SAFE = 700.0
# Critical crossings this near the box edges, and triangles with |det| <=
# _DET_MARGIN or a coordinate within _BARY_MARGIN of 0, are uncertain.
_CRITICAL_MARGIN, _DET_MARGIN, _BARY_MARGIN = 1e-9, 1e-8, 1e-4
# Triples screened at a time: the triple scan's memory is O(TRIPLE_CHUNK).
TRIPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class BallSpec:
    """One ball: exponent pair (p, theta) and a float radius 0 < nu <= the largest float."""

    p: Exponent
    theta: Exponent
    nu: float

    def __post_init__(self) -> None:
        # Exact for ints too; an int's repr may exceed Python's digit limit.
        if not 0 < self.nu <= sys.float_info.max:
            raise ValueError(f"radius must lie in (0, {sys.float_info.max!r}]")
        object.__setattr__(self, "nu", float(self.nu))

    @property
    def point(self) -> ReciprocalPoint:
        return ReciprocalPoint(self.p.u, self.theta.u)


@dataclass(frozen=True)
class Instance:
    """Dimensions, target space and a nonempty ball family."""

    dims: Dimensions
    target: TargetSpace
    balls: tuple[BallSpec, ...]

    def __post_init__(self) -> None:
        if not self.balls:
            raise ValueError("ball family must be nonempty")
        object.__setattr__(self, "balls", tuple(self.balls))

    @cached_property
    def _ball_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float u = 1/p, v = 1/theta and log nu per ball, shared by the scans."""
        u, v, nu = zip(*((float(b.p.u), float(b.theta.u), b.nu) for b in self.balls))
        return np.array(u), np.array(v), np.log(nu)


@dataclass(frozen=True)
class Certificate:
    """Everything needed to re-derive one finite component value.

    `weights` are the exact exponents applied to the participating radii
    (they sum to one); (p, theta) is where the single-ball profile is
    evaluated.  value = prod(nu_i^w_i) * profile.value.
    """

    j: int
    indices: tuple[int, ...]
    weights: tuple[Fraction, ...]
    p: Exponent
    theta: Exponent
    profile: PhiValue
    value: float


@dataclass
class PsiEstimate:
    """The estimate, all eight components, the tie set and the certificates."""

    value: float
    components: tuple[float, ...]
    argmin: tuple[int, ...]
    certificates: dict[int, Certificate] = field(default_factory=dict)


Scan = tuple[float, Optional[Certificate]]


def _coalesce(balls: Sequence[BallSpec], key: Callable) -> list[BallSpec]:
    """One ball per key, the one with the smallest radius, in first-seen order."""
    chosen: dict = {}
    for ball in balls:
        cell = key(ball)
        if cell not in chosen or ball.nu < chosen[cell].nu:
            chosen[cell] = ball
    return list(chosen.values())


def validate_instance(inst: Instance) -> Instance:
    """Check ranges and coalesce duplicate (p, theta) pairs keeping the smallest radius.

    The intersection with the larger of two concentric balls is redundant,
    so duplicates are merged rather than rejected.
    """
    balls = _coalesce(inst.balls, lambda b: (b.p.u, b.theta.u))
    return Instance(inst.dims, inst.target, tuple(balls))


def _confirm(inst: Instance, batches: Iterable[tuple], exact: Callable) -> Scan:
    """Stages 2-3 over batches of admitted (rows, weights, log profile, unsure).

    A row's float log-value is log profile + sum(weight * log nu).  Risky
    rows, and rows within the window of the least non-risky log-value seen
    so far, are re-run by `exact`; the least (value, indices) wins, which is
    the first strict minimum in index-lexicographic order.  A row confirmed
    before the minimum settles costs time but cannot change the result, and
    nothing outlives its batch.
    """
    la = inst._ball_arrays[2]
    t, d = inst.target, inst.dims
    amp = max((1 / (0.5 - float(e.u)) for e in (t.q, t.sigma) if e.u < HALF), default=1.0)
    tol = _LOG_WINDOW * (1.0 + float(np.abs(la).max()))
    tol += _PHI_WINDOW * amp * (1.0 + math.log(d.m * d.k * max(d.n, 1)))
    vmin, best, cert = math.inf, (math.inf, ()), None
    for rows, weights, lphi, unsure in batches:
        logv = lphi + (weights * la[rows]).sum(axis=1)
        risky = unsure | (np.abs(lphi) + (weights * np.abs(la[rows])).sum(axis=1) > _LOG_SAFE)
        vmin = min(vmin, float(logv[~risky].min(initial=math.inf)))
        for row in rows[risky | (logv <= vmin + tol)].tolist():
            found = exact(tuple(row))
            if found is not None and (found.value, found.indices) < best:
                best, cert = (found.value, found.indices), found
    return best[0], cert


def _opposite_pairs(offsets: list[Fraction]) -> tuple:
    """Pairs ia < ib whose exact offsets from a line have strictly opposite signs.

    Exact confirmation takes w = f_a / (f_a - f_b) from the same offsets; its
    float form has no cancellation.  A reversed pair has the same value and
    comes later in tie-break order, so it never wins.
    """
    signs = np.array([(f > 0) - (f < 0) for f in offsets])
    ia, ib = np.nonzero(np.triu(np.multiply.outer(signs, signs) < 0))
    f = np.array([float(x) for x in offsets])
    return ia, ib, f[ia] / (f[ia] - f[ib])


def _single_scan(inst: Instance) -> Scan:
    """Component 0: every ball on its own."""
    uf, vf, la = inst._ball_arrays
    lphi = log_phi_array(uf, vf, inst.target, inst.dims)

    def exact(row: tuple[int, ...]) -> Certificate:
        ball = inst.balls[row[0]]
        profile = phi(ball.p, ball.theta, inst.target, inst.dims)
        value = ball.nu * profile.value
        return Certificate(0, row, (Fraction(1),), ball.p, ball.theta, profile, value)

    rows = np.arange(len(la))[:, None]
    return _confirm(inst, [(rows, np.ones(rows.shape), lphi, False)], exact)


def _pair_scan(inst: Instance, j: int) -> Scan:
    """Components 1-5: pairs whose segment crosses a line at a weight in (0, 1).

    Components 1-4 cross the p (j = 1, 3) or theta (j = 2, 4) coordinate level
    of the target (j = 1, 2) or of 2 (j = 3, 4), with the profile at (level,
    companion) in crossing order.  Component 5 crosses the critical line inside
    (1/q, 1/2) x (1/sigma, 1/2), screened in floats; near-edge ones are unsure.
    """
    target = inst.target
    q, sigma = target.q, target.sigma
    if j == 5:
        if q.u == HALF or sigma.u == HALF:
            return math.inf, None
        offsets = [critical_deviation(ball.point, q, sigma) for ball in inst.balls]
    else:
        level = {1: q, 2: sigma, 3: TWO, 4: TWO}[j]
        offsets = [(ball.p if j in (1, 3) else ball.theta).u - level.u for ball in inst.balls]
    ia, ib, w = _opposite_pairs(offsets)
    uf, vf, _ = inst._ball_arrays
    cu, cv = (1.0 - w) * uf[ia] + w * uf[ib], (1.0 - w) * vf[ia] + w * vf[ib]
    unsure = np.zeros(ia.shape, dtype=bool)
    if j == 5:
        # On the critical line 1/q < u < 1/2 exactly when 1/sigma < v < 1/2.
        gap = np.minimum(cu - float(q.u), 0.5 - cu)
        keep = gap >= -_CRITICAL_MARGIN
        ia, ib, w, cu, cv, unsure = (x[keep] for x in (ia, ib, w, cu, cv, gap <= _CRITICAL_MARGIN))
    if not ia.size:
        return math.inf, None

    def exact(pair: tuple[int, ...]) -> Optional[Certificate]:
        # Opposite exact offsets put w strictly inside (0, 1).
        fa, fb = offsets[pair[0]], offsets[pair[1]]
        w = fa / (fa - fb)
        a, b = inst.balls[pair[0]], inst.balls[pair[1]]
        u, v = (1 - w) * a.p.u + w * b.p.u, (1 - w) * a.theta.u + w * b.theta.u
        if j == 5 and not (q.u < u < HALF and sigma.u < v < HALF):
            return None
        pe, te = Exponent(u), Exponent(v)
        profile = phi(pe, te, target, inst.dims)
        value = a.nu ** float(1 - w) * b.nu ** float(w) * profile.value
        return Certificate(j, pair, (1 - w, w), pe, te, profile, value)

    rows, weights = np.column_stack((ia, ib)), np.column_stack((1.0 - w, w))
    lphi = log_phi_array(cu, cv, target, inst.dims)
    return _confirm(inst, [(rows, weights, lphi, unsure)], exact)


def _triple_scan(inst: Instance, j: int) -> Scan:
    """Components 6-7: triples a < b < c strictly containing the goal point.

    With o(x, y) the orientation of (x, y) about the goal, the goal's
    barycentric coordinates in (a, b, c) are o(b, c), o(c, a), o(a, b) over
    their sum.  Per middle index b the triples are an a-by-c grid of views of
    one N x N orientation table, screened in blocks of at most TRIPLE_CHUNK
    triples.  The profile is only evaluated once a triple is admitted.
    """
    target = inst.target
    goal, pe, te = ReciprocalPoint(HALF, HALF), TWO, TWO
    if j == 6:
        goal, pe, te = ReciprocalPoint(target.q.u, target.sigma.u), target.q, target.sigma
    profile = cache(lambda: phi(pe, te, target, inst.dims))
    points = [ball.point for ball in inst.balls]
    uf, vf, _ = inst._ball_arrays
    du, dv = uf - float(goal.u), vf - float(goal.v)
    orient = np.multiply.outer(du, dv) - np.multiply.outer(dv, du)

    def batches():
        for b in range(1, len(points) - 1):
            o_bc = orient[b, b + 1:]
            step = max(1, TRIPLE_CHUNK // o_bc.size)
            for a0 in range(0, b, step):
                a = np.arange(a0, min(b, a0 + step))
                o_ab, o_ca = orient[a, b][:, None], orient[b + 1:, a].T
                det = o_ab + o_bc + o_ca
                with np.errstate(divide="ignore", invalid="ignore"):
                    ta, tb, tc = o_bc / det, o_ca / det, o_ab / det
                tmin = np.minimum(ta, np.minimum(tb, tc))  # NaN (det = 0) is unsure
                decisive = np.abs(det) > _DET_MARGIN
                unsure = ~(decisive & (np.abs(tmin) > _BARY_MARGIN))
                x, y = np.nonzero(unsure | (tmin > _BARY_MARGIN))
                if x.size:
                    rows = np.column_stack((a[x], np.full_like(x, b), b + 1 + y))
                    weights = np.column_stack((ta[x, y], tb[x, y], tc[x, y]))
                    weights[unsure[x, y]] = 0.0
                    yield rows, weights, math.log(profile().value), unsure[x, y]

    def exact(triple: tuple[int, ...]) -> Optional[Certificate]:
        taus = barycentric(*(points[i] for i in triple), goal)
        if taus is None:
            return None
        value = profile().value
        for i, w in zip(triple, taus):
            value *= inst.balls[i].nu ** float(w)
        return Certificate(j, triple, taus, pe, te, profile(), value)

    return _confirm(inst, batches(), exact)


def psi_component(inst: Instance, j: int) -> Scan:
    """One component value and its minimizing certificate (None when empty).

    Ties resolve to the first minimizer in index-lexicographic order, as in
    an exhaustive scan of ordered pairs and of triples in combination order.
    """
    if j not in range(8):
        raise ValueError(f"component index must be 0..7, got {j}")
    if j == 0:
        return _single_scan(inst)
    return _pair_scan(inst, j) if j < 6 else _triple_scan(inst, j)


def psi(inst: Instance) -> PsiEstimate:
    """All eight components, the overall minimum, the tie set and certificates."""
    values: list[float] = []
    certificates: dict[int, Certificate] = {}
    for j in range(8):
        value, cert = psi_component(inst, j)
        values.append(value)
        if cert is not None:
            certificates[j] = cert
    best = min(values)
    argmin = tuple(
        j for j, v in enumerate(values) if v <= best * (1.0 + REL_TIE_TOL)
    )
    return PsiEstimate(best, tuple(values), argmin, certificates)


def family_reduce(
    balls: Sequence[BallSpec], delta: Fraction, m: int, k: int
) -> list[BallSpec]:
    """Coalesce a ball family onto a delta-grid of reciprocal points.

    Covers the reciprocal points by half-open axis-aligned squares of side
    delta and keeps, per occupied cell, the ball with the smallest radius.
    Admissible only when (m*k)^delta <= 4/3, which sandwiches the reduced
    intersection M' between M and 2M.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    # (mk)^delta <= 4/3 checked in exact integer arithmetic.
    a, b = delta.numerator, delta.denominator
    if (m * k) ** a * 3**b > 4**b:
        raise ValueError(
            f"delta={delta} too coarse: requires (m*k)^delta <= 4/3 for m*k={m * k}"
        )
    if not balls:
        raise ValueError("ball family must be nonempty")
    return _coalesce(balls, lambda b: (int(b.p.u // delta), int(b.theta.u // delta)))
