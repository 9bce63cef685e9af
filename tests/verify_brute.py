"""Per-trial psi suites and the one-trial-at-a-time loop: the reference for `run_suites`.

This is verify as it was before its psi suites drew their trials for
`psi_many`: each trial draws its instances and values them with `psi` at
once, in the same draw order.  `run_suites` must return equal reports.  The
other suites are shared with `mixwidth.verify`, which runs them per trial
as before.  `reference_rand_balls` is the ball draw as it was before it
de-duplicated on the drawn integers: it keys on `Fraction` pairs.
"""

import numpy as np

from mixwidth.exponents import Exponent
from mixwidth.phi import Dimensions, TargetSpace
from mixwidth.psi import BallSpec, Instance, psi, validate_instance
from mixwidth.verify import (
    _CORRUPT_GAIN,
    _TRANSPOSE_MAP,
    SuiteResult,
    _branch_overlap,
    _gamma_invariance,
    _inclusion_scale,
    _interpolation,
    _rand_frac,
    _rand_instance,
    _rel_gap,
)


def reference_rand_balls(rng, count):
    balls = []
    seen = set()
    while len(balls) < count:
        u, v = _rand_frac(rng), _rand_frac(rng)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        nu = float(np.exp(rng.uniform(-1.5, 1.5)))
        balls.append(BallSpec(Exponent(u), Exponent(v), nu))
    return balls


def _homogeneity(rng, gain):
    inst = _rand_instance(rng)
    c = float(np.exp(rng.uniform(-2.0, 2.0)))
    scaled = Instance(
        inst.dims,
        inst.target,
        tuple(BallSpec(b.p, b.theta, c * b.nu) for b in inst.balls),
    )
    return abs(gain * psi(scaled).value / (c * psi(inst).value) - 1.0)


def _monotone_n(rng, gain):
    inst = _rand_instance(rng)
    half = inst.dims.m * inst.dims.k // 2
    n1 = int(rng.integers(0, half + 1))
    n2 = int(rng.integers(n1, half + 1))
    v1 = psi(Instance(Dimensions(inst.dims.m, inst.dims.k, n1), inst.target, inst.balls)).value
    v2 = psi(Instance(Dimensions(inst.dims.m, inst.dims.k, n2), inst.target, inst.balls)).value
    return max(0.0, gain * v2 / v1 - 1.0)


def _monotone_radius(rng, gain):
    inst = _rand_instance(rng)
    i = int(rng.integers(0, len(inst.balls)))
    grown = list(inst.balls)
    grown[i] = BallSpec(
        grown[i].p, grown[i].theta, grown[i].nu * float(np.exp(rng.uniform(0.0, 1.0)))
    )
    v0 = psi(inst).value
    v1 = psi(Instance(inst.dims, inst.target, tuple(grown))).value
    return max(0.0, gain * v0 / v1 - 1.0)


def _ball_added(rng, gain):
    inst = _rand_instance(rng, max_balls=3)
    extra = reference_rand_balls(rng, 1)[0]
    bigger = validate_instance(Instance(inst.dims, inst.target, inst.balls + (extra,)))
    v0 = psi(inst).value
    v1 = psi(bigger).value
    return max(0.0, gain * v1 / v0 - 1.0)


def _transpose(rng, gain):
    inst = _rand_instance(rng)
    swapped = Instance(
        Dimensions(inst.dims.k, inst.dims.m, inst.dims.n),
        TargetSpace(inst.target.sigma, inst.target.q),
        tuple(BallSpec(b.theta, b.p, b.nu) for b in inst.balls),
    )
    a, b = psi(inst), psi(swapped)
    slack = abs(gain * b.value / a.value - 1.0)
    for j in range(8):
        slack = max(slack, _rel_gap(a.components[j], b.components[_TRANSPOSE_MAP[j]]))
    return slack


SUITES = {
    "psi-homogeneity": (_homogeneity, 1e-12),
    "psi-monotone-n": (_monotone_n, 1e-12),
    "psi-monotone-radius": (_monotone_radius, 1e-12),
    "psi-ball-added": (_ball_added, 1e-12),
    "psi-transpose": (_transpose, 1e-12),
    "phi-branch-overlap": (_branch_overlap, 1e-9),
    "interpolation-inequality": (_interpolation, 1e-12),
    "gamma-invariance": (_gamma_invariance, 1e-14),
    "inclusion-scale-tightness": (_inclusion_scale, 1e-12),
}


def brute_run_suites(seed=0, trials=500, corrupt=None):
    results = []
    for idx, (name, (check, tol)) in enumerate(SUITES.items()):
        rng = np.random.default_rng([seed, idx])
        gain = _CORRUPT_GAIN if name == corrupt else 1.0
        failures, worst = 0, 0.0
        for _ in range(trials):
            slack = check(rng, gain)
            worst = max(worst, slack)
            failures += slack > tol
        results.append(SuiteResult(name, trials, failures, worst))
    return results
