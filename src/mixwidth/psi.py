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
are kept as risky.  (2) Float log-values of the admitted candidates come in
batches, with `log_phi_array` for the profile at a pair's crossing or a
triple's goal.  (3) The exact scalar code
re-values every risky candidate (uncertain, or with a float product that
might over- or underflow) and every candidate within one log-space window
of the least non-risky log-value, and the tie-break order picks among them.
The window is twice the float error budget, so the result is that of a
full exact scan.  `psi_many` runs each stage once for a block of instances,
with the window and its minimum kept per (instance, component), and `psi`
is `psi_many` of one instance.  Stage 2 values a block's batches joined up
to BLOCK rows: small instances together, a large one a component at a time.

Triples take one of two paths by the size rule `_flat`.  An instance with
at most FLAT_TRIPLES triples has them enumerated in one pass with those of
the rest of its block (`_flat_triples`); a larger one screens its own, and
values them in the screen so that only the triples stage 2 could pick
leave it (`_grid_triples`).  That screen bounds every triangle about a
goal by the goal's LP supporting plane (`_plane`, a simplex walk on three
rows): it takes anchor balls in ascending height above the plane's tilt,
stops a goal at the first anchor that cannot reach the window (level 1),
and cuts each anchor's pairs to those with a ball low enough to reach it
(level 2), so a generic family screens O(N) triples.  Both paths orient
each triangle in index order and screen it with the same float operations
and margins (`_oriented_contains`), so the path taken changes no result.

The exact work is on Python integers: each ball's reciprocal point is
(U/D, V/D) over its own denominator D, offsets, crossing points and
barycentric coordinates are integer numerators over positive denominators,
and `phi._regions` decides the profile's regions by cross-multiplication.
One pass over an instance's balls (`_lines`) gives the offsets from all
five pair lines.  Every float is an int true division, correctly rounded
as float(Fraction) is, so the results equal those of the `Fraction`
solvers in `exponents` bit for bit.  One function, `_geometry`, finds the
exact record of every candidate, single, pair or triple: the factors the
profile is multiplied by, in order, the certificate's indices, weights and
exponent pair, and the profile's regions there, the part of the profile
that does not read n.  Every candidate is valued one way, as
`phi._profile` of its regions times its factors in turn.  Each component
keeps only its winning row, and a `Certificate`, with its `Fraction`
weights and `Exponent`s, is built from it when the estimate's
`certificates` mapping first reads that component: verify and sweep,
which read none, build none.

`mixwidth.sweep` runs this pipeline over many n at once: it shares stage
1, the triple screen and the n-independent part of stage 3 (`_geometry`,
and the goals and their regions of `_goal`) across each run of a sweep's
rows, joins its candidates by `_merged`, and picks and keeps rows by the
same stage-2 policy (`_picked`) and winner rule (`_keep`) as `_scan_block`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, starmap
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .exponents import HALF, Exponent
from .phi import Dimensions, PhiValue, TargetSpace, _profile, _regions, log_phi_array, profile_params

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
# (Triple, goal) pairs the anchor screen takes at a time: its memory is
# O(N + TRIPLE_CHUNK), and at N = 128 its peak stays below that of the pair
# stage.
TRIPLE_CHUNK = 1 << 13
# The size rule: an instance with at most this many triples (N <= 30) takes
# the flat path.  Measured on `psi` of random families on the 1/1024 grid,
# the flat path takes 0.7-0.9x the grid's time from N = 8 to 24; the two
# cross near N = 31, and at N = 48 and 80 the flat path takes 1.8x and
# 4.8x.  The flat screen holds about 120 bytes per triple at once, and the
# grid O(N + TRIPLE_CHUNK), so the rule also keeps the flat peak below that
# of `psi` at N = 128 on the grid (0.5 against 0.8 MB).  `psi_many` also
# closes a block once its flat triples reach this many.
FLAT_TRIPLES = 1 << 12
# Candidates per stage-2 pass.  `psi_many` closes a block of instances once
# they count this many (eight per instance for its components, plus its
# balls and opposite-sign pairs), and pair and triple batches alike are
# joined up to this many rows, here and in a sweep (`_merged`).  Stage 2's
# memory is O(BLOCK) beyond a single component's own; at 1024 and more,
# joined triples raised the grid's peak at N = 128.
BLOCK = 512
# The psi_6/psi_7 screen's LP walk (`_plane`): its artificial vertices, at radius
# 4 about the goal, and its pivot cap (a random family at N = 128 takes
# 3-11 pivots).
_ARTIFICIAL = ([0.0, -2 * math.sqrt(3), 2 * math.sqrt(3)], [4.0, -2.0, -2.0])
_WALK_PIVOTS = 64


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

    @cached_property
    def _ints(self) -> tuple[int, int, int]:
        """(U, V, D): the reciprocal point is (U/D, V/D), over its least common denominator D."""
        u, v = self.p.u, self.theta.u
        d = math.lcm(u.denominator, v.denominator)
        return u.numerator * (d // u.denominator), v.numerator * (d // v.denominator), d


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

    @cached_property
    def _params(self) -> tuple[float, ...]:
        return profile_params(self.target, self.dims)

    @cached_property
    def _window(self) -> float:
        """Stage 3's log-space window about the least non-risky log-value."""
        return _log_window(self.target, self.dims, float(np.abs(self._ball_arrays[2]).max()))


def _log_window(target: TargetSpace, dims: Dimensions, lmax: float) -> float:
    """`Instance._window` of a family whose largest |log nu| is lmax; it grows with n."""
    amp = max((1 / (0.5 - float(e.u)) for e in (target.q, target.sigma) if e.u < HALF), default=1.0)
    tol = _LOG_WINDOW * (1.0 + lmax)
    return tol + _PHI_WINDOW * amp * (1.0 + math.log(dims.m * dims.k * max(dims.n, 1)))


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


class _Certificates(Mapping):
    """Read-only map from component to `Certificate`, over the rows stage 3 kept.

    A component's certificate is built from its row the first time it is
    read, then kept, so a caller that prints none builds none.
    """

    def __init__(self, rows: dict[int, tuple]):
        self._rows = rows
        self._built: dict[int, Certificate] = {}

    def __getitem__(self, j: int) -> Certificate:
        if j not in self._built:
            self._built[j] = _certificate(j, self._rows[j])
        return self._built[j]

    def __contains__(self, j: object) -> bool:
        return j in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class PsiEstimate:
    """The estimate, all eight components, the tie set and the certificates.

    `certificates` is any mapping from component to `Certificate`: `psi`
    gives one that builds each certificate when it is first read.
    """

    value: float
    components: tuple[float, ...]
    argmin: tuple[int, ...]
    certificates: Mapping[int, Certificate] = field(default_factory=dict)


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
    balls = _coalesce(inst.balls, lambda b: b._ints)
    return Instance(inst.dims, inst.target, tuple(balls))


def _lines(inst: Instance) -> dict[int, tuple[list[int], list[int], list[float]]]:
    """Offsets of every ball from each pair component's line (j = 1..5): numerators, signs and floats.

    Components 1-4 measure the p (j = 1, 3) or theta (j = 2, 4) coordinate
    from the level of the target (j = 1, 2) or of 2 (j = 3, 4); component 5
    the critical deviation, and it has no line (every offset 0) at q = 2 or
    sigma = 2.  Ball i's offset is c F_i / D_i: an integer numerator F_i
    over the denominator D_i of `_ints`, times c = cn / cd > 0 fixed by the
    component.  A pair crosses the line at w = f_a / (f_a - f_b) when its
    offsets have strictly opposite signs; the float form has no cancellation.
    One pass reads each ball's `_ints` once, for all five lines.
    """
    q, sigma = inst.target.q.u, inst.target.sigma.u
    us, vs, ds = zip(*(ball._ints for ball in inst.balls))
    aq, bq, av, bv = q.numerator, q.denominator, sigma.numerator, sigma.denominator
    # Component j's level a/b on coordinate x: the offset x/D - a/b is F / (D b).
    levels = {1: (us, aq, bq), 2: (vs, av, bv), 3: (us, 1, 2), 4: (vs, 1, 2)}
    nums = {j: [x * b - a * d for x, d in zip(xs, ds)] for j, (xs, a, b) in levels.items()}
    scale = {j: (1, b) for j, (_, _, b) in levels.items()}
    # (u - 1/q)/(1/2 - 1/q) - (v - 1/sigma)/(1/2 - 1/sigma) = 2 (F_1 cs - F_2 cq) / (D cq cs),
    # where cq = 0 or cs = 0 exactly when q = 2 or sigma = 2.
    cq, cs = bq - 2 * aq, bv - 2 * av
    if cq and cs:
        nums[5], scale[5] = [f * cs - g * cq for f, g in zip(nums[1], nums[2])], (2, cq * cs)
    else:
        nums[5], scale[5] = [0] * len(ds), (1, 1)
    lines = {}
    for j, f in nums.items():
        cn, cd = scale[j]
        lines[j] = f, [(x > 0) - (x < 0) for x in f], [cn * x / (d * cd) for x, d in zip(f, ds)]
    return lines


def _geometry(inst: Instance, j: int, row: tuple[int, ...], context) -> Optional[tuple]:
    """Stage 3's exact record of candidate `row` of component j (None if it does not qualify).

    Returns (factors, indices, weights, p, theta, regions): the candidate's
    value is the profile at (p, theta), `phi._profile(regions, params)`,
    times each of `factors` in turn, which are a single's radius, a pair's
    product of its two radius powers or a triple's three powers.
    (p, theta) is the crossing point, or the goal, and `regions` is
    `phi._regions` there.  Each weight and reciprocal exponent is an
    integer (numerator, denominator) pair, denominator positive.  `context`
    is the offset numerators of `_lines` (j = 1..5) or the goal, `_goal`
    (j = 6, 7).  Nothing here reads n: `mixwidth.sweep` finds each record
    once per run of rows.
    """
    balls = inst.balls
    if j > 5:
        # With x_i - goal = (P_i / (D_i s), Q_i / (D_i t)), the orientation o(x, y) is
        # (P_x Q_y - Q_x P_y) / (D_x D_y s t), so o(b, c), o(c, a), o(a, b) times
        # D_a D_b D_c s t are the barycentric numerators, over their sum.
        pe, te, offsets, regions = context
        a, b, c = row
        (pa, qa, da), (pb, qb, db), (pc, qc, dc) = offsets[a], offsets[b], offsets[c]
        ta, tb, tc = (pb * qc - qb * pc) * da, (pc * qa - qc * pa) * db, (pa * qb - qa * pb) * dc
        det = ta + tb + tc
        if det < 0:
            ta, tb, tc, det = -ta, -tb, -tc, -det
        if not (ta > 0 and tb > 0 and tc > 0):  # also when det = 0
            return None
        powers = balls[a].nu ** (ta / det), balls[b].nu ** (tb / det), balls[c].nu ** (tc / det)
        return powers, row, ((ta, det), (tb, det), (tc, det)), pe, te, regions
    if j == 0:
        u, v, d = balls[row[0]]._ints
        return (balls[row[0]].nu,), row[:1], ((1, 1),), (u, d), (v, d), _regions(u, d, v, d, inst.target, inst._params)
    (ua, va, da), (ub, vb, db) = balls[row[0]]._ints, balls[row[1]]._ints
    fa, fb = context[row[0]], context[row[1]]
    if fa < 0:
        fa, fb = -fa, -fb
    # fa > 0 > fb: w = fa db / den on b lies in (0, 1), and the crossing
    # point (1 - w) a + w b is (fa b - fb a) / den in the _ints numerators.
    den = fa * db - fb * da
    un, vn = fa * ub - fb * ua, fa * vb - fb * va
    if j == 5:
        q, sigma = inst.target.q.u, inst.target.sigma.u
        if not (q.numerator * den < un * q.denominator and 2 * un < den
                and sigma.numerator * den < vn * sigma.denominator and 2 * vn < den):
            return None
    wa, wb = -fb * da, fa * db
    factor = balls[row[0]].nu ** (wa / den) * balls[row[1]].nu ** (wb / den)
    regions = _regions(un, den, vn, den, inst.target, inst._params)
    return (factor,), row, ((wa, den), (wb, den)), (un, den), (vn, den), regions


def _certificate(j: int, found: tuple) -> Certificate:
    """The `Certificate` of a row stage 3 kept, with its weights and exponents as `Fraction`s."""
    value, indices, weights, p, theta, profile = found
    return Certificate(j, indices, tuple(Fraction(n, d) for n, d in weights),
                       Exponent(Fraction(*p)), Exponent(Fraction(*theta)), profile, value)


def _contains(o_ab, o_bc, o_ca) -> tuple:
    """Triangles (a, b, c) that may contain the goal, from their orientations about it.

    The goal's barycentric coordinates are o(b, c), o(c, a), o(a, b) over
    their sum.  The three arrays broadcast to the triangles' shape, and
    `o_ca` is overwritten.  A triangle is unsure if |det| <= _DET_MARGIN or
    a coordinate is within _BARY_MARGIN of 0, and kept if unsure or if every
    coordinate is above the margin.  Returns the kept triangles' flat
    indices in that shape, their float coordinates as rows (zeroed where
    unsure, as stage 2 reads them) and which of them are unsure.
    """
    det = o_ab + o_bc
    det += o_ca
    # In place where a temporary can be reused: this is the triple scan's peak.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = o_bc / det, np.divide(o_ca, det, out=o_ca), o_ab / det
    thin = np.abs(det, out=det) <= _DET_MARGIN
    tmin = np.minimum(weights[1], weights[2], out=det)
    np.minimum(weights[0], tmin, out=tmin)  # NaN only where det = 0
    hit = tmin >= -_BARY_MARGIN
    hit |= thin
    hit = hit.ravel().nonzero()[0]
    unsure = thin.ravel().take(hit)
    unsure |= tmin.take(hit) <= _BARY_MARGIN
    kept = np.empty((3, len(hit)))
    for t, row in zip(weights, kept):
        t.take(hit, out=row)
    kept = kept.T
    kept[unsure] = 0.0
    return hit, kept, unsure


def _log_value(terms: Iterable[tuple], lphi):
    """Float log-values: the sum of weight times log radius over `terms`, in order, plus log Phi.

    Stage 2 and the grid's screen both value candidates here, so a value
    the screen compares is the one stage 2 would compute, bit for bit.
    """
    (w, lnu), *rest = terms
    logv = w * lnu
    for w, lnu in rest:
        logv += w * lnu
    logv += lphi
    return logv


def _orient(ux, vx, uy, vy) -> np.ndarray:
    """o(x, y) = du_x dv_y - dv_x du_y, from the offsets (du, dv) of x and of y, which broadcast."""
    o = ux * vy
    o -= vx * uy
    return o


def _oriented_contains(u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """`_contains` of the triangles (a_i, b_i, c_i), a_i < b_i < c_i, from the balls' offsets (u, v) from the goal.

    Both paths orient every triangle in index order here, so they screen it
    with the same float operations.
    """
    ua, va, ub, vb, uc, vc = u.take(a), v.take(a), u.take(b), v.take(b), u.take(c), v.take(c)
    o = _orient(ua, va, ub, vb), _orient(ub, vb, uc, vc), _orient(uc, vc, ua, va)
    del ua, va, ub, vb, uc, vc  # freed before the scan's peak, in `_contains`
    return _contains(*o)


def _pairs(balls: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair a < b of one instance with a in `balls`, in index order; ends[a] ends a's instance."""
    rest = ends[balls] - 1 - balls
    pa = np.repeat(balls, rest)
    return pa, pa + 1 + np.arange(len(pa)) - np.repeat(np.cumsum(rest) - rest, rest)


def _flat_triples(balls: np.ndarray, ends: np.ndarray, slot: np.ndarray, du: np.ndarray,
                  dv: np.ndarray) -> Iterator[tuple]:
    """Components 6-7 of the small instances, of balls `balls`: every triple a < b < c at once.

    The triples extend the `_pairs` (a, b) of `balls` by each c < ends[b],
    in index order, and are screened in one pass across instances:
    `psi_many` closes a block once its triples reach FLAT_TRIPLES, so it
    holds fewer than twice that many.  `slot` is each ball's slot of
    component 0, and (du[g], dv[g]) are every ball's float offsets from its
    instance's goal of component 6 + g.  Yields the stage-2 batch of the
    triples that may contain a goal, without profile logs.
    """
    pa, pb = _pairs(balls, ends)
    b, c = _pairs(pb, ends)
    a = np.repeat(pa, ends[pb] - 1 - pb)
    batch = []
    for j, u, v in zip((6, 7), du, dv):
        hit, weights, unsure = _oriented_contains(u, v, a, b, c)
        batch.append((slot[a[hit]] + j, np.column_stack((a[hit], b[hit], c[hit])), weights, unsure))
    yield _joined(batch)


def _grid_triples(du: np.ndarray, dv: np.ndarray, la: np.ndarray, lgoal: np.ndarray,
                  window: float, first: int, slot: int) -> Iterator[tuple]:
    """Components 6 and 7 of one larger instance, screened anchor by anchor under each goal's LP plane.

    (du[g], dv[g]) are its balls' float offsets from the goal of component
    slot + g, g = 0, 1, `la` their log radii and lgoal[g] the log of goal
    g's profile.  `_plane` finds the tilt (beta, gamma) of the LP plane
    under the lifted points (du, dv, la) of each goal, and t = la - beta du
    - gamma dv is each ball's height above the plane's tilt.  A triangle
    that contains the goal has weights tau with sum(tau (du, dv)) = 0, so
    its value sum(tau la) + lgoal is sum(tau t) + lgoal: at least that of
    its least-t vertex x, t_x + lgoal.  Each goal takes its balls as
    anchors in ascending (t, index) order, and anchor x meets each pair of
    later anchors, so each triple is met once per goal.  Rows of
    consecutive anchors, of both goals, share a chunk of up to TRIPLE_CHUNK
    triples, each sorted to index order and screened as on the flat path
    (`_oriented_contains`).  Each triple is valued as stage 2 values it,
    and dropped if sure and more than `window` above its goal's least sure
    value vmin so far.  Yields stage-2 batches without profile logs, balls
    numbered from `first`; memory is O(N + TRIPLE_CHUNK).

    Floats.  A sure triangle (|det| > _DET_MARGIN, every weight above
    _BARY_MARGIN) has float weights w within err = 16 eps R^2 / _DET_MARGIN
    of the exact barycentric coordinates of the float offsets, eps being
    the float epsilon and R the largest |offset|.  So |sum(w (du, dv))| is
    under R err, and the triangle's float value is at least sum(w t) +
    lgoal less `margin`: (|beta| + |gamma|) R err, plus 1e-9 of 1 + |lgoal|
    + max |la| + (|beta| + |gamma|) R for a few ulps of the sums, products
    and heights.  An unsure triangle's exact weights meet the same bound.
    The plane is flat (t = la) where the walk fails or where that budget's
    first term is above the window.

    The rules.  With D = vmin + window - lgoal + margin, (level 1) a goal
    stops at the first anchor with t_x > D: no later triple could be kept,
    or win stage 3, as the window covers the least value's float error.
    (Level 2) A triple (x, y, z) has 1 - tau_x >= delta, delta the goal's
    distance from x over the diagonal of the offsets' bounding box, so
    sum(tau t) is at most D only if min(t_y, t_z) <= t_x + (D - t_x) / delta.
    Where delta is above 2 err, so that the float 1 - w_x is at least
    delta / 2, anchor x keeps only the pairs with a t of at most t_x +
    2 (D - t_x) / delta, by a margin, and all of them otherwise.  Before
    the first anchor, each walk's basis triangle is valued as its anchor
    will value it, which sets vmin at once; a chunk tests its anchors with
    vmin from before it, which only falls.  With an infinite window (where
    a sure triple could be risky), no sure triple, equal radii, or log radii
    affine in (du, dv), neither rule cuts, and every triple is screened once.

    A goal with no plane (an infinite window, or a failed walk) is skipped
    if `_outside` the balls' hull; a goal on the hull is screened.
    """
    n = du.shape[1]
    lmax = float(np.abs(la).max())
    # A sure triple's weights are positive and sum to 1 within a few ulps,
    # so below this bound stage 2 finds none of them risky.
    window = np.where(np.abs(lgoal) + lmax * (1.0 + 1e-9) <= _LOG_SAFE, window, math.inf)
    reach = np.maximum(np.abs(du).max(axis=1), np.abs(dv).max(axis=1))
    err = 16 * sys.float_info.epsilon * reach * reach / _DET_MARGIN
    goals, heights, margins, bases = [], [], [], []
    for g in range(len(du)):
        plane = _plane(du[g], dv[g], la) if window[g] < math.inf else None
        if plane is None and _outside(du[g], dv[g]):
            continue
        beta, gamma = plane[:2] if plane is not None else (0.0, 0.0)
        budget = (abs(beta) + abs(gamma)) * reach[g]
        t = la - beta * du[g]
        t -= gamma * dv[g]
        margin = budget * err[g] + 1e-9 * (1.0 + abs(lgoal[g]) + lmax + budget)
        if not budget * err[g] <= window[g]:
            t, margin = la, 1e-9 * (1.0 + abs(lgoal[g]) + lmax)
        if plane is not None:
            bases.append([len(goals) * n + i for i in sorted(plane[2])])
        goals.append(g)
        heights.append(t)
        margins.append(margin)
    if not goals:
        return
    goals, t, margin = np.array(goals), np.array(heights), np.array(margins)
    du, dv, lgoal, window, err = du[goals], dv[goals], lgoal[goals], window[goals], err[goals]
    order = np.argsort(t, axis=1, kind="stable")
    ts = np.take_along_axis(t, order, axis=1)
    delta = np.hypot(du, dv) / np.hypot(np.ptp(du, axis=1), np.ptp(dv, axis=1))[:, None]
    # Flat numbering: ball i of goal g is g n + i, and so is its anchor position i.
    order += n * np.arange(len(goals))[:, None]
    order, u, v, lnu, delta = order.ravel(), du.ravel(), dv.ravel(), np.tile(la, len(goals)), delta.ravel()
    ends = np.repeat(n * np.arange(1, len(goals) + 1), n)
    vmin = np.full(len(goals), math.inf)

    def screened(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
        """(goal, rows, weights, unsure, logv) of the flat triangles a < b < c that may contain the goal.

        Lowers vmin to their least sure log-value; logv is inf where unsure.
        """
        hit, weights, unsure = _oriented_contains(u, v, a, b, c)
        rows = a.take(hit), b.take(hit), c.take(hit)
        g = rows[0] // n
        logv = _log_value(zip(weights.T, (lnu.take(r) for r in rows)), lgoal.take(g))
        logv[unsure] = math.inf
        np.minimum.at(vmin, g, logv)
        return g, rows, weights, unsure, logv

    if bases:
        screened(*np.array(bases).T)
    pos, row, rows = [0] * len(goals), [0] * len(goals), [0] * len(goals)  # per goal: anchor, its next row, its rows
    while True:
        starts, anchors, counts, size = [], [], [], 0
        for g, bound in enumerate((vmin + window - lgoal + margin).tolist()):
            while size < TRIPLE_CHUNK and pos[g] < n - 2:
                p, r, x = pos[g], row[g], order[g * n + pos[g]]
                if r == 0:
                    tx = float(ts[g, p])
                    if tx > bound:  # level 1; a NaN bound stops nothing
                        pos[g] = n
                        break
                    rows[g] = n - 2 - p
                    if math.isfinite(bound) and delta[x] > 2 * err[g]:  # level 2
                        cut = tx + 2 * (bound - tx) / delta[x] * (1.0 + 1e-9) + margin[g]
                        rows[g] = min(rows[g], int(ts[g].searchsorted(cut, side="right")) - p - 1)
                # Row r of the anchor at p pairs position p + 1 + r with each later one.
                end = min(rows[g], r + max(1, (TRIPLE_CHUNK - size) // (n - 2 - p - r))) if r < rows[g] else r
                starts.append(np.arange(g * n + p + 1 + r, g * n + p + 1 + end))
                anchors.append(x)
                counts.append(end - r)
                size += (end - r) * (2 * (n - 2 - p) - end - r + 1) // 2
                row[g] = end
                if end >= rows[g]:
                    pos[g], row[g] = p + 1, 0
        if not size:
            return
        i = np.concatenate(starts)
        pa, pb = _pairs(i, ends)
        x, y, z = np.repeat(np.repeat(anchors, counts), ends[i] - 1 - i), order.take(pa), order.take(pb)
        # Each (x, y, z) sorted to index order in place: the chunk's peak holds
        # no more index arrays than before the sort.
        a = np.minimum(y, z)
        np.maximum(y, z, out=z)
        np.clip(x, a, z, out=y)
        np.minimum(a, x, out=a)
        np.maximum(z, x, out=z)
        g, found, weights, unsure, logv = screened(a, y, z)
        keep = logv <= (vmin + window).take(g)
        keep |= unsure
        keep = keep.nonzero()[0]
        if keep.size:
            g = g.take(keep)
            found = np.column_stack([r.take(keep) for r in found])
            found += (first - n * g)[:, None]
            yield slot + goals.take(g), found, weights[keep], unsure[keep]


def _outside(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the goal, at offset (0, 0) from the points (u, v), lies outside their hull, and so in no triangle.

    It does where the widest angular gap of the offsets about it is over pi
    and every offset lies more than _DET_MARGIN, far above their float
    error, into the half plane opposite the gap's middle.
    """
    angle = np.sort(np.arctan2(v, u))
    gap = np.diff(angle, append=angle[0] + 2 * math.pi)
    k = int(gap.argmax())
    mid = float(angle[k] + gap[k] / 2) + math.pi
    return bool((u * math.cos(mid) + v * math.sin(mid)).min() > _DET_MARGIN)


def _plane(u: np.ndarray, v: np.ndarray, la: np.ndarray) -> Optional[tuple]:
    """(beta, gamma, basis): the tilt of the plane under the lifted points (u_i, v_i, la_i) highest at (0, 0),
    and the three balls it rests on; None if the walk fails.

    The plane is the dual of the LP min sum(tau la) over tau >= 0 with
    sum(tau) = 1 and sum(tau (u, v)) = 0.  A simplex walk starts from three
    artificial vertices at radius 4 about the origin (every offset is at
    most sqrt 2 from it) and a big-M height, and enters the ball of most
    negative slack below the plane through the basis, the first such on
    ties (Bland), while one lies below it by more than 1e-12 of 1 + max
    |la| + |alpha| + |beta| + |gamma|, above a slack's float error.  The
    leaving vertex keeps the origin in the basis triangle, the first by
    index on ties.  The walk fails after _WALK_PIVOTS pivots, on a flat
    basis triangle, or if it ends with an artificial vertex in the basis:
    the origin is then outside the balls' hull, on it, or near it.  The
    plane need not be optimal: `_grid_triples` rests its tilt on the lowest
    point, so a poor plane costs time only.
    """
    n = len(la)
    lifted = np.stack((np.ones(n), u, v))
    us, vs, hs = u.tolist(), v.tolist(), la.tolist()
    lmax = float(np.abs(la).max())
    us += _ARTIFICIAL[0]
    vs += _ARTIFICIAL[1]
    hs += [max(hs) + 1e6 * (1.0 + float(np.ptp(la)))] * 3
    basis = [n, n + 1, n + 2]
    for _ in range(_WALK_PIVOTS):
        (u0, v0, h0), (u1, v1, h1), (u2, v2, h2) = ((us[k], vs[k], hs[k]) for k in basis)
        # The plane h = alpha + beta u + gamma v through the basis, and the
        # origin's barycentric coordinates in its triangle.
        det = (u1 - u0) * (v2 - v0) - (v1 - v0) * (u2 - u0)
        if not abs(det) > 0:
            return None
        cu = (v1 - v0) * (h2 - h0) - (h1 - h0) * (v2 - v0)
        cv = (h1 - h0) * (u2 - u0) - (u1 - u0) * (h2 - h0)
        beta, gamma = -cu / det, -cv / det
        alpha = h0 - beta * u0 - gamma * v0
        slack = la - np.dot((alpha, beta, gamma), lifted)
        e = int(slack.argmin())
        if not slack[e] < -1e-12 * (1.0 + lmax + abs(alpha) + abs(beta) + abs(gamma)):
            break
        ue, ve = us[e], vs[e]
        tau = (u1 * v2 - v1 * u2, u2 * v0 - v2 * u0, u0 * v1 - v0 * u1)
        d = ((u1 - ue) * (v2 - ve) - (v1 - ve) * (u2 - ue), (u2 - ue) * (v0 - ve) - (v2 - ve) * (u0 - ue),
             (u0 - ue) * (v1 - ve) - (v0 - ve) * (u1 - ue))
        ratios = [(tau[k] / d[k], basis[k], k) for k in range(3) if d[k] / det > 1e-12]
        if not ratios:
            return None
        basis[min(ratios)[2]] = e
    else:
        return None
    if max(basis) >= n or not math.isfinite(beta) or not math.isfinite(gamma):
        return None
    return beta, gamma, basis


def _goal_context(inst: Instance, j: int) -> tuple:
    """Stage 3's context of triple component j in `_scan_block`: its goal (`_goal`) and the profile there."""
    goal = _goal(inst, j)
    return goal, _profile(goal[3], inst._params)


def _goal(inst: Instance, j: int) -> tuple:
    """Goal j, (1/q, 1/sigma) (j = 6) or (1/2, 1/2): its reciprocal exponents, every ball's offset from it,
    and the profile's regions there (`phi._regions`)."""
    gu, gv = (inst.target.q.u, inst.target.sigma.u) if j == 6 else (HALF, HALF)
    (gun, gud), (gvn, gvd) = pe, te = (gu.numerator, gu.denominator), (gv.numerator, gv.denominator)
    ints = (ball._ints for ball in inst.balls)
    return (pe, te, [(u * gud - gun * d, v * gvd - gvn * d, d) for u, v, d in ints],
            _regions(*pe, *te, inst.target, inst._params))


def _collinear(inst: Instance, row: tuple[int, ...]) -> bool:
    """Whether the reciprocal points of the three balls of `row` are collinear, in integers."""
    (ua, va, da), (ub, vb, db), (uc, vc, dc) = (inst.balls[i]._ints for i in row)
    return ua * (vb * dc - vc * db) + ub * (vc * da - va * dc) + uc * (va * db - vb * da) == 0


def _merged(batches: Iterable[tuple]) -> Iterator[tuple]:
    """Consecutive batches joined while they hold at most BLOCK rows; a larger one stays alone.

    A full join is yielded before the next batch is built, and no join is
    empty: an empty batch joins the next rows, or is dropped at the end.
    It reads the module's BLOCK, so one patch of `psi.BLOCK` sets every join.
    """
    pending: list[tuple] = []
    rows = 0
    for batch in batches:
        if rows and rows + len(batch[0]) > BLOCK:
            yield _joined(pending)
            pending, rows = [], 0
        pending.append(batch)
        rows += len(batch[0])
        if rows >= BLOCK:
            yield _joined(pending)
            pending, rows = [], 0
    if rows:
        yield _joined(pending)


def _joined(batches: list[tuple]) -> tuple:
    return batches[0] if len(batches) == 1 else tuple(map(np.concatenate, zip(*batches)))


def _flat(n: int) -> bool:
    """Whether an instance of n balls takes the block path for its triples."""
    return math.comb(n, 3) <= FLAT_TRIPLES


def _pair_batches(lines: list[dict], owner: np.ndarray, ends: np.ndarray, uf: np.ndarray,
                  vf: np.ndarray, uq: np.ndarray) -> Iterator[tuple]:
    """Stage 1 of components 0-5 for a block: a batch per component, without profile logs.

    `lines` holds each instance's `_lines` and `uq` its float 1/q; `owner`
    and `ends` give each ball's instance and where that instance's balls
    end.  A batch is (label, rows, weights, cu, cv, unsure): each
    candidate's slot 8 i + j, its balls (a, b) and weights (1 - w, w) as
    two-column arrays (a single is (a, a) with weights (1, 0)), its float
    crossing point, and whether admission is unsure.
    """
    every = np.arange(len(uf))
    yield (owner * 8, np.column_stack((every, every)), np.repeat([[1.0, 0.0]], len(uf), axis=0), uf, vf,
           np.zeros(len(uf), bool))
    pa, pb = _pairs(every, ends)
    for j in range(1, 6):
        signs = np.array([s for line in lines for s in line[j][1]], dtype=np.int8)
        offsets = np.array([f for line in lines for f in line[j][2]])
        keep = signs[pa] * signs[pb] < 0
        rows = np.column_stack((pa[keep], pb[keep]))
        a, b = rows.T
        w = offsets[a] / (offsets[a] - offsets[b])
        weights = np.column_stack((1.0 - w, w))
        cu, cv = (1.0 - w) * uf[a] + w * uf[b], (1.0 - w) * vf[a] + w * vf[b]
        unsure = np.zeros(len(a), bool)
        if j == 5:
            # On the critical line 1/q < u < 1/2 exactly when 1/sigma < v < 1/2.
            gap = np.minimum(cu - uq[owner[a]], 0.5 - cu)
            keep = gap >= -_CRITICAL_MARGIN
            rows, weights, cu, cv, unsure = (x[keep] for x in (rows, weights, cu, cv, gap <= _CRITICAL_MARGIN))
        yield owner[rows[:, 0]] * 8 + j, rows, weights, cu, cv, unsure


def _triple_batches(sizes: list[int], owner: np.ndarray, ends: np.ndarray, uf: np.ndarray, vf: np.ndarray,
                    la: np.ndarray, goals: np.ndarray, lgoal: np.ndarray, windows: Sequence[float]) -> Iterator[tuple]:
    """Stage 1 of components 6-7 for a block: `_flat_triples` of its small instances, then each larger one's grid.

    Instance i has `sizes[i]` balls, float goal (1/q, 1/sigma) `goals[i]`,
    and its grid screens with the logs `lgoal[i]` of the profile at its two
    goals and the window `windows[i]`.
    """
    firsts = (np.cumsum(sizes) - sizes).tolist()
    flat = [_flat(n) for n in sizes]
    du, dv = np.stack((uf - goals[owner, 0], uf - 0.5)), np.stack((vf - goals[owner, 1], vf - 0.5))
    return chain(_flat_triples(np.flatnonzero(np.array(flat)[owner]), ends, owner * 8, du, dv), *(
        _grid_triples(du[:, f:f + n], dv[:, f:f + n], la[f:f + n], lgoal[i], windows[i], f, 8 * i + 6)
        for i, (f, n) in enumerate(zip(firsts, sizes)) if not flat[i]))


def _block_layout(insts: Sequence[Instance]) -> tuple:
    """(sizes, firsts, owner, ends) of a block whose balls are numbered across its instances."""
    sizes = [len(inst.balls) for inst in insts]
    firsts = (np.cumsum(sizes) - sizes).tolist()
    owner = np.repeat(np.arange(len(insts)), sizes)
    return sizes, firsts, owner, np.repeat(np.add(firsts, sizes), sizes)


def _scan_block(block: list[tuple[Instance, dict]]) -> list[PsiEstimate]:
    """The estimate of every instance of a block, by the three-stage pipeline.

    `block` pairs each instance with its `_lines`.
    Slot 8 i + j is component j of instance i; balls are numbered across
    the block.  Stage 1 enumerates the singles (a pair (a, a) with weight 0
    on its second ball), the opposite-sign pairs and the triples of the
    small instances (`_flat`) of all slots, a batch per pair component or
    triple chunk, and screens and values a larger instance's triples on its
    own grid; stage 2 values joined batches (`_merged`) with
    `log_phi_array`, at the crossing for a pair and at the goal (one call
    per block) for a triple, and keeps the least non-risky log-value per
    slot; stage 3 re-runs every risky row and every row within its slot's
    window of that least value exactly, building a triple slot's goal
    context at its first such row.  The least (value, indices) wins, which
    is the first strict minimum in index-lexicographic order.
    A row confirmed before its slot's minimum settles costs time but cannot
    change the result.  A picked row's value is the profile times the
    factors of its `_geometry` record in turn; each winning row is kept as
    (value, indices, weights, p, theta, profile), and its `Certificate` is
    built only when the estimate's mapping is read.
    """
    insts = [inst for inst, _ in block]
    sizes, firsts, owner, ends = _block_layout(insts)
    uf, vf, la = map(np.concatenate, zip(*(inst._ball_arrays for inst in insts)))
    params = np.array([inst._params for inst in insts])

    def valued(label, rows, weights, cu, cv, unsure) -> tuple:
        """A pair batch with the log of the profile at each crossing."""
        lphi = log_phi_array(cu, cv, params[owner[rows[:, 0]]].T if len(insts) > 1 else params[0])
        return label, rows, weights, lphi, unsure

    # Each slot's `_geometry` context, and the profile a triple slot shares.
    contexts = {8 * i + j: (lines[j][0], None) for i, (_, lines) in enumerate(block) for j in lines}
    # log Phi at each instance's goals: (1/q, 1/sigma) at slot 8 i + 6 and (1/2, 1/2) at 8 i + 7.
    goals = np.concatenate((params[:, :2], np.full((len(insts), 2), 0.5)))
    lgoal = np.zeros((len(insts), 8))
    lgoal[:, 6:] = log_phi_array(*goals.T, np.tile(params.T, 2)).reshape(2, -1).T
    windows = [inst._window for inst in insts]
    pairs = _pair_batches([lines for _, lines in block], owner, ends, uf, vf, params[:, 0])
    triples = _triple_batches(sizes, owner, ends, uf, vf, la, params[:, :2], lgoal[:, 6:], windows)
    lgoal = lgoal.ravel()
    window = np.repeat(windows, 8)
    vmin = np.full(8 * len(insts), math.inf)
    best: dict[int, tuple] = {}
    for label, rows, weights, lphi, unsure in chain(
            starmap(valued, _merged(pairs)),
            ((label, rows, weights, lgoal[label], unsure) for label, rows, weights, unsure in _merged(triples))):
        # In place where an operand is not needed again: numpy keeps freed
        # small buffers per size, so fewer live arrays hold less memory.
        lnu = la[rows]
        logv = _log_value(zip(weights.T, lnu.T), lphi)
        pick = _picked(label, logv, lphi, (weights * np.abs(lnu, out=lnu)).sum(axis=1), unsure, window[label], vmin)
        for slot, row in zip(label[pick].tolist(), rows[pick].tolist()):
            i, j = divmod(slot, 8)
            inst, row = insts[i], tuple(r - firsts[i] for r in row)
            if j > 5 and slot not in contexts:
                if _collinear(inst, row):  # contains no goal: no context needed yet
                    continue
                contexts[slot] = _goal_context(inst, j)
            context, profile = contexts.get(slot, (None, None))
            found = _geometry(inst, j, row, context)
            if found is not None:
                factors, indices, weights, p, theta, regions = found
                if profile is None:
                    profile = _profile(regions, inst._params)
                value = profile.value
                for factor in factors:
                    value *= factor
                _keep(best, slot, (value, indices, weights, p, theta, profile))
        # Free this batch before the next one is built.
        del label, rows, weights, lphi, unsure, lnu, logv, pick
    return [_found_estimate({j: best[8 * i + j] for j in range(8) if 8 * i + j in best})
            for i in range(len(insts))]


def _picked(slot: np.ndarray, logv: np.ndarray, lphi: np.ndarray, wabs: np.ndarray, unsure: np.ndarray,
            window: np.ndarray, vmin: np.ndarray) -> np.ndarray:
    """Stage 2: which candidates stage 3 re-values exactly.

    Candidate i of slot `slot[i]` has float log-value `logv[i]`, log profile
    `lphi[i]`, sum of weight times |log radius| `wabs[i]` and the window
    `window[i]`.  It is risky if its admission is unsure or its float
    product might leave the normal range (|log Phi| + wabs > _LOG_SAFE).
    `vmin` takes each slot's least non-risky log-value, in place; the risky
    candidates and those within the window of their slot's least are picked.
    """
    risky = np.abs(lphi) + wabs > _LOG_SAFE
    risky |= unsure
    np.minimum.at(vmin, slot[~risky], logv[~risky])
    pick = logv <= vmin[slot] + window
    pick |= risky
    return pick


def _keep(best: dict[int, tuple], slot: int, found: tuple) -> None:
    """Hold stage 3's row `found`, (value, indices, weights, p, theta, profile), as `slot`'s if it beats the row held.

    The least value wins, then the least indices, which is the first
    minimizer in index-lexicographic order; a row valued inf or NaN never wins.
    """
    if found[:2] < best.get(slot, (math.inf, ()))[:2]:
        best[slot] = found


def _rank(rows: np.ndarray, size: int) -> np.ndarray:
    """`_keep`'s order of the index tuples `rows` of one length, as one integer each (indices < size < 2**21)."""
    rank = rows[:, 0].copy()
    for column in rows[:, 1:].T:
        rank *= size
        rank += column
    return rank


def _found_estimate(rows: dict[int, tuple]) -> PsiEstimate:
    """The estimate whose component j is the row stage 3 kept for it, if any."""
    return _estimate([rows[j][0] if j in rows else math.inf for j in range(8)], _Certificates(rows))


def psi_component(inst: Instance, j: int) -> tuple[float, Optional[Certificate]]:
    """Component j of `psi(inst)`: its value and minimizing certificate (None when empty).

    Ties resolve to the first minimizer in index-lexicographic order, as in
    an exhaustive scan of ordered pairs and of triples in combination order.
    """
    if j not in range(8):
        raise ValueError(f"component index must be 0..7, got {j}")
    est = psi(inst)
    return est.components[j], est.certificates.get(j)


def _estimate(values: Sequence[float], certificates: Mapping[int, Certificate]) -> PsiEstimate:
    """The estimate from the eight component values and the finite components' certificates."""
    values = tuple(values)
    best = min(values)
    argmin = tuple(j for j, v in enumerate(values) if v <= best * (1.0 + REL_TIE_TOL))
    return PsiEstimate(best, values, argmin, certificates)


def psi(inst: Instance) -> PsiEstimate:
    """All eight components, the overall minimum, the tie set and certificates."""
    return next(psi_many([inst]))


def psi_many(instances: Iterable[Instance]) -> Iterator[PsiEstimate]:
    """`psi` of each instance, in order, sharing each pipeline stage across a block.

    Instances are read lazily and gathered until they count BLOCK
    candidates, or FLAT_TRIPLES triples on the flat path; the block is then
    scanned at once and its estimates yielded, so memory does not grow with
    the number of instances.  Every value, tie set and certificate is the
    one `psi` returns.
    """
    block: list[tuple[Instance, dict]] = []
    size = triples = 0
    for inst in instances:
        lines = _lines(inst)
        block.append((inst, lines))
        size += 8 + len(inst.balls) + sum(s.count(1) * s.count(-1) for _, s, _ in lines.values())
        triples += math.comb(len(inst.balls), 3) if _flat(len(inst.balls)) else 0
        if size >= BLOCK or triples >= FLAT_TRIPLES:
            yield from _scan_block(block)
            block, size, triples = [], 0, 0
    if block:
        yield from _scan_block(block)


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
