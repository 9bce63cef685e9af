"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from mixwidth import (
    BallSpec,
    Dimensions,
    Exponent,
    Instance,
    TargetSpace,
    best_witness_lower_bound,
    exact_width_linf,
    family_reduce,
    membership,
    numeric_width_estimate,
    parse_exponent,
    psi,
    run_suites,
    sample_boundary,
    validate_instance,
)
from conftest import make_instance
from helpers import is_general_position, point

E = parse_exponent


@contextmanager
def criterion(num: int, budget_s: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    elapsed = time.monotonic() - t0
    within = budget_s is None or elapsed < budget_s
    print(f"\nACCEPTANCE {num}: {'PASS' if within else 'FAIL'} ({elapsed:.2f}s)")
    assert within, f"criterion {num} runtime {elapsed:.2f}s exceeded {budget_s}s"


def test_criterion_1_single_ball_vs_exact_sup_ball_widths():
    with criterion(1, budget_s=1.0):
        for s in ("2", "3", "4"):
            sf = float(E(s).value)
            lo = 2.0 ** (-1.0 / sf) * 0.99
            for m in (2, 4, 8):
                for k in (2, 4, 8):
                    for n in range(0, m * k // 2 + 1):
                        inst = make_instance(m, k, n, s, s, [("inf", "inf", 1.0)])
                        ratio = exact_width_linf(m * k, n, E(s)) / psi(inst).value
                        assert lo <= ratio <= 1.01, (s, m, k, n, ratio)


def test_criterion_2_euclidean_sanity():
    with criterion(2, budget_s=30.0):
        ball = [("2", "2", 1.0)]
        for m in (1, 2, 3, 4, 8):
            for k in (1, 2, 3, 4, 8):
                for n in range(0, m * k // 2 + 1):
                    assert psi(make_instance(m, k, n, "2", "2", ball)).value == 1.0
        balls = [BallSpec(E("2"), E("2"), 1.0)]
        for m, k, n in [(2, 2, 1), (2, 2, 2), (3, 3, 2), (3, 3, 4), (1, 2, 1)]:
            got = numeric_width_estimate(balls, m, k, n, E("2"), E("2"), seed=7)
            assert abs(got.estimate - 1.0) <= 0.10, (m, k, n, got.estimate)


def test_criterion_3_hand_derived_two_ball_instance(two_ball_instance):
    with criterion(3):
        est = psi(two_ball_instance)
        assert abs(est.value - 2.0) <= 2.0 * 1e-12
        assert est.argmin == (0, 1, 3)
        for j in (1, 3):
            cert = est.certificates[j]
            assert cert.weights == (Fraction(1, 2), Fraction(1, 2))  # exact
            assert cert.theta.u == Fraction(1, 2)  # companion exponent is 2
            assert abs(est.components[j] - 2.0) <= 2.0 * 1e-12
        assert abs(est.components[0] - 2.0) <= 2.0 * 1e-12


def test_criterion_4_invariant_suites():
    with criterion(4, budget_s=60.0):
        results = run_suites(seed=0, trials=500)
        for r in results:
            assert r.trials >= 500
            assert r.passed, (r.name, r.failures, r.worst_slack)


WITNESS_PATTERNS = {
    "one-ball": [("5", "10/3", 1.0)],
    "two-ball": [("5", "10/3", 1.0), ("3/2", "6", 2.0)],
    "three-ball": [("5", "10/3", 1.0), ("3/2", "6", 2.0), ("10", "5/4", 1.5)],
}


def test_criterion_5_witness_sandwich_order_consistency():
    with criterion(5, budget_s=120.0):
        for q, s in (("2", "2"), ("3", "3"), ("4", "2")):
            for name, balls in WITNESS_PATTERNS.items():
                ratios = []
                for mk in (4, 8, 16, 32, 64):
                    inst = make_instance(mk, mk, (mk * mk) // 4, q, s, balls)
                    ok, _ = is_general_position(
                        [point(b) for b in inst.balls], inst.target.q, inst.target.sigma
                    )
                    assert ok, (q, s, name)
                    lb, _, _ = best_witness_lower_bound(inst)
                    ratios.append(lb / psi(inst).value)
                band = max(ratios) / min(ratios)
                assert band <= 4.0, (q, s, name, ratios)


CONTINUITY_INSTANCES = (
    ((64, 64, 1024), ("3", "4"), [("8", "8/3", 1.0), ("5/4", "6", 2.0)]),
    ((48, 32, 384), ("2", "3"), [("3", "7/2", 1.5), ("12", "5/4", 0.8), ("4/3", "8", 2.2)]),
    ((64, 16, 128), ("4", "2"), [("6", "5/2", 1.0), ("10/9", "9", 3.0)]),
)


def _perturbed(inst: Instance, eps: Fraction, rng) -> Instance:
    balls = []
    for b in inst.balls:
        du = eps * Fraction(int(rng.integers(-(10**6), 10**6 + 1)), 10**6)
        dv = eps * Fraction(int(rng.integers(-(10**6), 10**6 + 1)), 10**6)
        u = min(Fraction(1), max(Fraction(0), b.p.u + du))
        v = min(Fraction(1), max(Fraction(0), b.theta.u + dv))
        balls.append(BallSpec(Exponent(u), Exponent(v), b.nu))
    return Instance(inst.dims, inst.target, tuple(balls))


def test_criterion_6_continuity_under_exponent_perturbation():
    with criterion(6):
        for idx, ((m, k, n), (q, s), balls) in enumerate(CONTINUITY_INSTANCES):
            inst = make_instance(m, k, n, q, s, balls)
            base = psi(inst).value
            dev = {}
            for eps in (Fraction(1, 100), Fraction(1, 10000)):
                rng = np.random.default_rng([77, idx, eps.denominator])
                dev[eps] = max(
                    abs(psi(_perturbed(inst, eps, rng)).value / base - 1.0)
                    for _ in range(50)
                )
            assert dev[Fraction(1, 10000)] < dev[Fraction(1, 100)], (idx, dev)
            assert dev[Fraction(1, 10000)] < 0.05, (idx, dev)


def test_criterion_7_covering_reduction():
    with criterion(7):
        m = k = 8
        delta = Fraction(1, 15)  # (64)^(1/15) <= 4/3 holds
        for seed in (0, 1):
            rng = np.random.default_rng([55, seed])
            balls, seen = [], set()
            while len(balls) < 100:
                u = Fraction(int(rng.integers(0, 1025)), 1024)
                v = Fraction(int(rng.integers(0, 1025)), 1024)
                if (u, v) in seen:
                    continue
                seen.add((u, v))
                balls.append(
                    BallSpec(Exponent(u), Exponent(v), float(np.exp(rng.uniform(-0.7, 0.7))))
                )
            target = TargetSpace(
                Exponent(Fraction(int(rng.integers(1, 513)), 1024)),
                Exponent(Fraction(int(rng.integers(1, 513)), 1024)),
            )
            inst = validate_instance(Instance(Dimensions(m, k, 16), target, tuple(balls)))
            reduced = family_reduce(inst.balls, delta, m, k)
            assert len(reduced) <= len(inst.balls)

            violations = 0
            for i in range(500):
                # points of M lie in M' (the reduced family is a subfamily)
                x = sample_boundary(inst.balls, m, k, seed=3000 + i) * rng.uniform(0, 1)
                ok, _ = membership(x, reduced)
                violations += not ok
                # points of (1/2) M' lie in M
                y = 0.5 * sample_boundary(reduced, m, k, seed=9000 + i) * rng.uniform(0, 1)
                ok, _ = membership(y, inst.balls)
                violations += not ok
            assert violations == 0

            ratio = psi(
                validate_instance(Instance(inst.dims, target, tuple(reduced)))
            ).value / psi(inst).value
            assert 0.25 <= ratio <= 4.0, ratio
