"""Randomized invariant suites, shared by the CLI verify mode and the tests.

Each suite yields, per trial, the slack by which one invariant of the
library is violated (0 when it holds exactly) on seeded random inputs.  A
psi suite is a draw (rng -> instances and a fold) plus its fold (estimates
-> slack): its trials are drawn in order and valued together by
`psi_many`.  Every other suite is one per-trial check that draws its inputs
and returns the slack.  `_SUITES` pairs each suite with its tolerance, and
`run_suites` runs the trials and reports the trial count, failures and worst
observed slack.  A suite name can be passed as `corrupt` to deliberately
skew its comparison; that is a self-test hook proving the harness detects
real deviations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional

import numpy as np

from .exponents import HALF, Exponent
from .norms import (
    corollary_check,
    interpolation_check,
    membership,
    mixed_norm,
)
from .phi import Dimensions, TargetSpace, phi
from .psi import BallSpec, Instance, psi_many, validate_instance
from .witness import GroupElement, group_apply, v_extreme_point, v_inclusion_scale


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    worst_slack: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

_DEN = 1024
# Largest m and k of the random instances, branch-overlap and inclusion draws.
_DIM_MAX = 16


def _rand_frac(rng) -> Fraction:
    """A uniform draw from the 1/_DEN grid on [0, 1]."""
    return Fraction(int(rng.integers(0, _DEN + 1)), _DEN)


def _rand_target(rng) -> TargetSpace:
    uq = Fraction(int(rng.integers(1, _DEN // 2 + 1)), _DEN)
    vs = Fraction(int(rng.integers(1, _DEN // 2 + 1)), _DEN)
    return TargetSpace(Exponent(uq), Exponent(vs))


def _rand_balls(rng, count: int) -> list[BallSpec]:
    """`count` balls at distinct points of the 1/_DEN grid, drawn as `_rand_frac` draws them."""
    balls: list[BallSpec] = []
    seen = set()
    while len(balls) < count:
        cell = int(rng.integers(0, _DEN + 1)), int(rng.integers(0, _DEN + 1))
        if cell in seen:
            continue
        seen.add(cell)
        nu = float(np.exp(rng.uniform(-1.5, 1.5)))
        p, theta = (Exponent(Fraction(x, _DEN)) for x in cell)
        balls.append(BallSpec(p, theta, nu))
    return balls


def _rand_instance(rng, max_balls: int = 4) -> Instance:
    m = int(rng.integers(1, _DIM_MAX + 1))
    k = int(rng.integers(1, _DIM_MAX + 1))
    n = int(rng.integers(0, m * k // 2 + 1))
    balls = _rand_balls(rng, int(rng.integers(1, max_balls + 1)))
    return validate_instance(
        Instance(Dimensions(m, k, n), _rand_target(rng), tuple(balls))
    )


def _rand_exponent(rng) -> Exponent:
    return Exponent(_rand_frac(rng))


def _rel_gap(a: float, b: float) -> float:
    """Relative gap |a - b| / max(|a|, |b|); 0 when both are infinite."""
    if math.isinf(a) and math.isinf(b):
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    hi = max(abs(a), abs(b))
    return abs(a - b) / hi if hi > 0 else 0.0


# ---------------------------------------------------------------------------
# psi suites: rng -> (instances, fold), where fold(estimates, gain) -> slack
# ---------------------------------------------------------------------------


def _homogeneity(rng):
    inst = _rand_instance(rng)
    c = float(np.exp(rng.uniform(-2.0, 2.0)))
    scaled = Instance(
        inst.dims,
        inst.target,
        tuple(BallSpec(b.p, b.theta, c * b.nu) for b in inst.balls),
    )
    return (scaled, inst), lambda e, gain: abs(gain * e[0].value / (c * e[1].value) - 1.0)


def _monotone_n(rng):
    inst = _rand_instance(rng)
    half = inst.dims.m * inst.dims.k // 2
    n1 = int(rng.integers(0, half + 1))
    n2 = int(rng.integers(n1, half + 1))
    shifted = tuple(
        Instance(Dimensions(inst.dims.m, inst.dims.k, n), inst.target, inst.balls)
        for n in (n1, n2)
    )
    return shifted, lambda e, gain: max(0.0, gain * e[1].value / e[0].value - 1.0)


def _monotone_radius(rng):
    inst = _rand_instance(rng)
    i = int(rng.integers(0, len(inst.balls)))
    grown = list(inst.balls)
    grown[i] = BallSpec(
        grown[i].p, grown[i].theta, grown[i].nu * float(np.exp(rng.uniform(0.0, 1.0)))
    )
    grown_inst = Instance(inst.dims, inst.target, tuple(grown))
    # a larger radius may only raise psi
    return (inst, grown_inst), lambda e, gain: max(0.0, gain * e[0].value / e[1].value - 1.0)


def _ball_added(rng):
    inst = _rand_instance(rng, max_balls=3)
    extra = _rand_balls(rng, 1)[0]
    bigger = validate_instance(
        Instance(inst.dims, inst.target, inst.balls + (extra,))
    )
    # another ball may only lower psi
    return (inst, bigger), lambda e, gain: max(0.0, gain * e[1].value / e[0].value - 1.0)


_TRANSPOSE_MAP = (0, 2, 1, 4, 3, 5, 6, 7)


def _transpose(rng):
    inst = _rand_instance(rng)
    swapped = Instance(
        Dimensions(inst.dims.k, inst.dims.m, inst.dims.n),
        TargetSpace(inst.target.sigma, inst.target.q),
        tuple(BallSpec(b.theta, b.p, b.nu) for b in inst.balls),
    )

    def fold(e, gain):
        a, b = e
        slack = abs(gain * b.value / a.value - 1.0)
        for j in range(8):
            slack = max(slack, _rel_gap(a.components[j], b.components[_TRANSPOSE_MAP[j]]))
        return slack

    return (inst, swapped), fold


def _psi_suite(draw: Callable) -> Callable:
    """Slacks of a psi suite: trials are drawn lazily, in order, and valued by `psi_many`."""

    def slacks(rng, trials: int, gain: float) -> Iterator[float]:
        folds: deque = deque()

        def instances():
            for _ in range(trials):
                insts, fold = draw(rng)
                folds.append((len(insts), fold))
                yield from insts

        estimates = psi_many(instances())
        for first in estimates:
            count, fold = folds.popleft()
            yield fold([first, *islice(estimates, count - 1)], gain)

    return slacks


def _per_trial(check: Callable) -> Callable:
    """Slacks of a suite whose trial draws its inputs and returns its slack."""
    return lambda rng, trials, gain: (check(rng, gain) for _ in range(trials))


# ---------------------------------------------------------------------------
# per-trial checks: (rng, gain) -> slack
# ---------------------------------------------------------------------------


def _reference_branches(
    u: Fraction, v: Fraction, target: TargetSpace, dims: Dimensions
) -> dict[int, float]:
    """Straight-line re-evaluation of every applicable branch formula."""
    uq, vs = target.q.u, target.sigma.u
    m, k, n = float(dims.m), float(dims.k), dims.n
    rn = math.inf if n == 0 else 1.0 / math.sqrt(n)

    def om(x: Fraction, lvl: Fraction) -> float:
        if lvl == HALF:
            return 1.0
        return min(float((x - lvl) / (HALF - lvl)), 1.0)

    out: dict[int, float] = {}
    if u <= uq and v <= vs:
        out[1] = m ** float(uq - u) * k ** float(vs - v)
    if u <= uq and v >= vs:
        a = m ** float(uq - u)
        out[2] = min(a, a * (rn * m**0.5 * k ** float(vs)) ** om(v, vs))
    if u >= uq and v <= vs:
        a = k ** float(vs - v)
        out[3] = min(a, a * (rn * m ** float(uq) * k**0.5) ** om(u, uq))
    if uq <= u <= HALF and v >= vs and om(u, uq) <= om(v, vs):
        out[4] = min(
            1.0,
            (rn * m ** float(uq) * k ** float(vs)) ** om(u, uq),
            m ** float(uq - u) * (rn * m**0.5 * k ** float(vs)) ** om(v, vs),
        )
    if vs <= v <= HALF and u >= uq and om(v, vs) <= om(u, uq):
        out[5] = min(
            1.0,
            (rn * m ** float(uq) * k ** float(vs)) ** om(v, vs),
            k ** float(vs - v) * (rn * m ** float(uq) * k**0.5) ** om(u, uq),
        )
    if u >= HALF and v >= HALF:
        out[6] = min(1.0, rn * m ** float(uq) * k ** float(vs))
    return out


def _branch_overlap(rng, gain: float) -> float:
    target = _rand_target(rng)
    uq, vs = target.q.u, target.sigma.u
    m = int(rng.integers(1, _DIM_MAX + 1))
    k = int(rng.integers(1, _DIM_MAX + 1))
    dims = Dimensions(m, k, int(rng.integers(0, m * k // 2 + 1)))
    # Land exactly on a region boundary.
    kind = int(rng.integers(0, 5))
    ur, vr = _rand_frac(rng), _rand_frac(rng)
    if kind == 0:
        u, v = uq, vr
    elif kind == 1:
        u, v = ur, vs
    elif kind == 2:
        u, v = HALF, vr
    elif kind == 3:
        u, v = ur, HALF
    else:
        w = Fraction(int(rng.integers(1, _DEN)), _DEN)
        u = uq + w * (HALF - uq)
        v = vs + w * (HALF - vs)
    got = phi(Exponent(u), Exponent(v), target, dims)
    slack = 0.0
    for branch, val in _reference_branches(u, v, target, dims).items():
        slack = max(slack, _rel_gap(gain * got.value, val))
        if branch not in got.branches:
            slack = math.inf
    return slack


def _interpolation(rng, gain: float) -> float:
    m = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    x = rng.standard_normal((m, k))
    s1 = (_rand_exponent(rng), _rand_exponent(rng))
    s2 = (_rand_exponent(rng), _rand_exponent(rng))
    lhs, rhs, _ = interpolation_check(x, s1, s2, _rand_frac(rng))
    slack = max(0.0, gain * lhs / rhs - 1.0) if rhs > 0 else 0.0
    a = _rand_frac(rng)
    b = (1 - a) * _rand_frac(rng)
    specs = [
        ((_rand_exponent(rng), _rand_exponent(rng)), a),
        ((_rand_exponent(rng), _rand_exponent(rng)), b),
        ((_rand_exponent(rng), _rand_exponent(rng)), 1 - a - b),
    ]
    lhs, rhs, _ = corollary_check(x, specs)
    if rhs > 0:
        slack = max(slack, gain * lhs / rhs - 1.0)
    return slack


def _gamma_invariance(rng, gain: float) -> float:
    m = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    x = rng.standard_normal((m, k))
    g = GroupElement.random(m, k, rng)
    p, theta = _rand_exponent(rng), _rand_exponent(rng)
    return _rel_gap(gain * mixed_norm(x, p, theta), mixed_norm(group_apply(g, x), p, theta))


def _inclusion_scale(rng, gain: float) -> float:
    m = int(rng.integers(1, _DIM_MAX + 1))
    k = int(rng.integers(1, _DIM_MAX + 1))
    balls = _rand_balls(rng, int(rng.integers(1, 5)))
    r = int(rng.integers(1, m + 1))
    l = int(rng.integers(1, k + 1))
    t = v_inclusion_scale(balls, r, l)
    _, ratio = membership(gain * t * v_extreme_point(m, k, r, l), balls)
    return abs(ratio - 1.0)


# name -> (slacks(rng, trials, gain), tolerance on a slack); the order fixes
# each suite's seed and the report order.
_SUITES: dict[str, tuple[Callable, float]] = {
    "psi-homogeneity": (_psi_suite(_homogeneity), 1e-12),
    "psi-monotone-n": (_psi_suite(_monotone_n), 1e-12),
    "psi-monotone-radius": (_psi_suite(_monotone_radius), 1e-12),
    "psi-ball-added": (_psi_suite(_ball_added), 1e-12),
    "psi-transpose": (_psi_suite(_transpose), 1e-12),
    "phi-branch-overlap": (_per_trial(_branch_overlap), 1e-9),
    "interpolation-inequality": (_per_trial(_interpolation), 1e-12),
    "gamma-invariance": (_per_trial(_gamma_invariance), 1e-14),
    "inclusion-scale-tightness": (_per_trial(_inclusion_scale), 1e-12),
}

SUITE_NAMES = tuple(_SUITES)

_CORRUPT_GAIN = 1.0 + 5e-3


def run_suites(
    seed: int = 0, trials: int = 500, corrupt: Optional[str] = None
) -> list[SuiteResult]:
    """Run every suite for `trials` trials with per-suite seeded generators.

    `corrupt` names a suite whose comparison is deliberately skewed by half
    a percent (harness self-test; the named suite must then fail).
    """
    if corrupt is not None and corrupt not in _SUITES:
        raise ValueError(f"unknown suite {corrupt!r}; choose from {SUITE_NAMES}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    results = []
    for idx, (name, (slacks, tol)) in enumerate(_SUITES.items()):
        rng = np.random.default_rng([seed, idx])
        gain = _CORRUPT_GAIN if name == corrupt else 1.0
        failures, worst = 0, 0.0
        for slack in slacks(rng, trials, gain):
            worst = max(worst, slack)
            failures += slack > tol
        results.append(SuiteResult(name, trials, failures, worst))
    return results
