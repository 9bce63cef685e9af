"""The candidate pipeline of `psi` against the brute-force scans.

The differential tests compare value and certificate with `==`: the
pipeline must return exactly what the exhaustive exact scan in `psi_brute`
returns, including which of several tied candidates wins.
"""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixwidth import (
    Dimensions,
    Exponent,
    Instance,
    TargetSpace,
    phi,
    psi,
    psi_many,
)
from mixwidth.phi import _REL_BRANCH_TOL, log_phi_array, profile_params
from mixwidth.psi import psi_component
from mixwidth.verify import _rand_instance
from conftest import build
from psi_brute import brute_component
from test_psi_grid import _outside, psi_module


def assert_matches_brute(inst):
    est = psi(inst)
    for j in range(8):
        assert (est.components[j], est.certificates.get(j)) == brute_component(inst, j), j


class TestDifferential:
    def test_verify_generator_small(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            assert_matches_brute(_rand_instance(rng))

    def test_verify_generator_sixteen_balls(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            assert_matches_brute(_rand_instance(rng, max_balls=16))

    def test_sixteenth_grid_equal_radii(self):
        # collinear points, points on the levels and exact ties everywhere
        rng = np.random.default_rng(9)
        for trial in range(30):
            count = int(rng.integers(3, 13))
            cells = rng.choice(17 * 17, size=count, replace=False)
            nu = (0.5, 1.0, 2.0)[trial % 3]
            balls = [(Fraction(int(c) // 17, 16), Fraction(int(c) % 17, 16), nu) for c in cells]
            m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            uq = Fraction(int(rng.integers(1, 9)), 16)
            vs = Fraction(int(rng.integers(1, 9)), 16)
            assert_matches_brute(build(m, k, int(rng.integers(0, m * k // 2 + 1)), uq, vs, balls))

    def test_n_zero(self):
        # w * log(n^-1/2) with w = 0 must be 0 under the n = 0 convention
        rng = np.random.default_rng(10)
        for _ in range(30):
            inst = _rand_instance(rng, max_balls=6)
            assert_matches_brute(
                Instance(Dimensions(inst.dims.m, inst.dims.k, 0), inst.target, inst.balls)
            )

    def test_uncertain_critical_crossing_never_sets_the_window(self):
        # Balls 0 and 1 cross the critical line u = v of q = sigma = 4 at
        # (1/2, 1/2), on the box edge: the pair is rejected exactly, although
        # its float log-value is the least of all pairs.
        inst = build(
            16, 16, 8, "1/4", "1/4",
            [(0, 1, 1e-3), (1, 0, 1e-3), ("3/10", "9/20", 1.0), ("9/20", "3/10", 1.0)],
        )
        value, cert = psi_component(inst, 5)
        assert cert is not None and cert.indices != (0, 1)
        assert (value, cert) == brute_component(inst, 5)

    def test_mirrored_thin_triangles_tie_exactly(self):
        # Thin triangles around (1/2, 1/2) mirrored in v = 1/2 with mirrored
        # radii near 1e+-300 tie exactly, while their float log-values differ
        # by the barycentric error times |log nu|; the first must still win.
        rng = np.random.default_rng(12)
        half = Fraction(1, 2)
        for _ in range(20):
            balls = []
            for _ in range(3):
                du = Fraction(int(rng.integers(-400, 401)), 1000)
                dv = Fraction(int(rng.integers(1, 100)), 10 ** int(rng.integers(6, 9)))
                nu = 10.0 ** (float(rng.choice([-300.0, 300.0])) + float(rng.uniform(-1, 1)))
                balls += [(half + du, half + dv, nu), (half + du, half - dv, nu)]
            m, k = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            n = int(rng.integers(0, m * k // 2 + 1))
            assert_matches_brute(build(m, k, n, "1/4", "1/3", balls))

    def test_subnormal_products_tie_in_float(self):
        # nu * Phi rounds to the least subnormal for both balls, so the exact
        # scan ties and keeps ball 0, although log nu + log Phi favours ball 1.
        inst = build(4, 4, 2, "1/2", "1/2", [("1/4", "1/2", 5e-324), ("3/8", "1/2", 5e-324)])
        value, cert = psi_component(inst, 0)
        assert value == 5e-324 and cert.indices == (0,)
        assert_matches_brute(inst)

    def test_small_triple_chunks(self, monkeypatch):
        # Chunks of five triples on the anchor screen of a family one ball
        # past the size rule: they split its anchors' rows.
        psi_module = sys.modules["mixwidth.psi"]
        monkeypatch.setattr(psi_module, "TRIPLE_CHUNK", 5)
        rng = np.random.default_rng(13)
        size = max(n for n in range(3, 200) if psi_module._flat(n)) + 1
        cells = rng.choice(65 * 65, size=size, replace=False)
        inst = build(16, 16, 8, "1/3", "1/4", [
            (Fraction(int(c) // 65, 64), Fraction(int(c) % 65, 64), float(np.exp(rng.uniform(-1, 1))))
            for c in cells])
        est = psi(inst)
        for j in (6, 7):
            assert (est.components[j], est.certificates.get(j)) == brute_component(inst, j), j


@pytest.mark.parametrize("size, seed", [pytest.param(160, 14, id="160"), pytest.param(256, 14, id="256"),
                                        pytest.param(1024, 14, id="1024"), pytest.param(1024, 0, id="1024-seed0")])
def test_psi_memory_is_bounded(size, seed):
    # 669,920 triples at 160 balls: holding them all at once would take about
    # 70 MB.  At 256 balls the pair components have 75,602 crossings, and
    # valuing them in one joined pass would peak near 13 MB.  At 1,024 balls
    # every opposite-sign pair at once took 44 MB; the anchors' pairs take
    # a few thousand rows.  Seed 0's seeds leave one line's first reach far
    # above its final one: with that reach fixed, 263 anchors sent 138,082
    # rows to stage 2 and peaked at 22 MB; tightened batch by batch, 1.5 MB.
    rng = np.random.default_rng(seed)
    cells = rng.choice(1025 * 1025, size=size, replace=False)
    radii = np.exp(rng.uniform(-1.5, 1.5, size=size))
    balls = [(Fraction(int(c) // 1025, 1024), Fraction(int(c) % 1025, 1024), float(nu))
             for c, nu in zip(cells, radii)]
    inst = build(64, 64, 1024, "1/3", "1/4", balls)
    tracemalloc.start()
    try:
        psi(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


class TestLogPhiArray:
    def test_matches_phi(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            inst = _rand_instance(rng)
            grid = [Fraction(i, 16) for i in range(17)]
            pts = [(u, v) for u in grid for v in grid]
            got = log_phi_array(
                np.array([float(u) for u, _ in pts]),
                np.array([float(v) for _, v in pts]),
                profile_params(inst.target, inst.dims),
            )
            want = [
                math.log(phi(Exponent(u), Exponent(v), inst.target, inst.dims).value)
                for u, v in pts
            ]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_matches_phi_at_the_goals(self):
        # psi values every triple's goal, (1/q, 1/sigma) and (1/2, 1/2), with
        # one array call per block; it must agree with the exact profile
        rng = np.random.default_rng(12)
        half = Fraction(1, 2)
        for trial in range(400):
            uq, vs = (Fraction(int(rng.integers(1, 33)), 64) for _ in range(2))
            if trial % 4 == 1:
                uq = half
            elif trial % 4 == 2:
                vs = half
            big = 10 ** int(rng.integers(0, 31))
            m, k = (int(rng.integers(1, 5000)) * big for _ in range(2))
            n = (0, m * k // 2, int(rng.integers(0, 2**62)) % (m * k // 2 + 1))[trial % 3]
            target, dims = TargetSpace(Exponent(uq), Exponent(vs)), Dimensions(m, k, n)
            goals = ((uq, vs), (half, half))
            got = log_phi_array(np.array([float(uq), 0.5]), np.array([float(vs), 0.5]),
                                profile_params(target, dims))
            for lphi, (u, v) in zip(got, goals):
                want = math.log(phi(Exponent(u), Exponent(v), target, dims).value)
                assert abs(lphi - want) <= _REL_BRANCH_TOL, (target, dims, u, v)

    def test_critical_line_keeps_a_branch(self):
        # on the critical line omega_p = omega_t exactly; the float ratios may
        # differ in the last bit, and branches 4 and 5 must not both drop out
        target = TargetSpace(Exponent(Fraction(3, 10)), Exponent(Fraction(1, 7)))
        dims = Dimensions(50, 40, 30)
        s = np.linspace(0.0, 1.0, 2001)
        u = 0.3 + s * (0.5 - 0.3)
        v = 1 / 7 + s * (0.5 - 1 / 7)
        got = log_phi_array(u, v, profile_params(target, dims))
        assert np.isfinite(got).all()
        for t in (0, 333, 1000, 1777):
            e = Fraction(t, 2000)
            pe = Exponent(Fraction(3, 10) + e * (Fraction(1, 2) - Fraction(3, 10)))
            te = Exponent(Fraction(1, 7) + e * (Fraction(1, 2) - Fraction(1, 7)))
            want = math.log(phi(pe, te, target, dims).value)
            assert got[t] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_n_zero_weight_zero_is_finite(self):
        # at v = 1/sigma branch 2 applies with weight 0: n^(-1/2) = inf to the 0
        target = TargetSpace(Exponent(Fraction(1, 4)), Exponent(Fraction(1, 3)))
        dims = Dimensions(8, 8, 0)
        got = log_phi_array(np.array([0.1, 0.4]), np.array([1 / 3, 1 / 3]), profile_params(target, dims))
        want = [
            math.log(phi(Exponent(Fraction(u)), Exponent(Fraction(1, 3)), target, dims).value)
            for u in (Fraction(1, 10), Fraction(2, 5))
        ]
        assert got == pytest.approx(want, rel=1e-12)


def _counting_contexts(monkeypatch):
    calls = []
    build_context = psi_module._goal_context
    monkeypatch.setattr(psi_module, "_goal_context",
                        lambda inst, j: calls.append(j) or build_context(inst, j))
    return calls


@pytest.mark.parametrize("size", [31, 48])
def test_no_goal_context_when_no_triangle_contains_a_goal(monkeypatch, size):
    # stage 3 builds a triple component's exact goal context at its first
    # non-collinear row; beyond both goals no such row reaches it, on either
    # path, though collinear ones do
    calls = _counting_contexts(monkeypatch)
    inst = _outside(np.random.default_rng(size), size)
    assert psi(inst).components[6:] == (math.inf, math.inf)
    with monkeypatch.context() as patch:
        patch.setattr(psi_module, "FLAT_TRIPLES", math.comb(size, 3))
        assert psi(inst).components[6:] == (math.inf, math.inf)
    assert calls == []


def test_goal_context_at_most_once_per_finite_component(monkeypatch):
    calls = _counting_contexts(monkeypatch)
    rng = np.random.default_rng(13)
    instances = [_rand_instance(rng, max_balls=int(rng.integers(1, 9))) for _ in range(300)]
    built = finite = 0
    for inst in instances:
        calls.clear()
        est = psi(inst)
        assert len(calls) == len(set(calls))
        assert len(calls) <= sum(c < math.inf for c in est.components[6:])
        built += len(calls)
        finite += sum(c < math.inf for c in est.components[6:])
    assert built > 0 and finite > 0
    # so does one block of many instances
    calls.clear()
    list(psi_many(instances))
    assert len(calls) <= finite


# Thin triangles around the goal and radii near 1e+-300 stress the float
# screen and the log-space window: a barycentric error of 1e-7 times
# |log nu| ~ 690 is far above a value window that ignores |log nu|.
def _thin_family(draw):
    uq = Fraction(draw(st.integers(1, 64)), 128)
    vs = Fraction(draw(st.integers(1, 64)), 128)
    goal = draw(st.sampled_from([(uq, vs), (Fraction(1, 2), Fraction(1, 2))]))
    dx, dy = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
    count = draw(st.integers(3, 7))
    balls, seen = [], set()
    for _ in range(count):
        t = Fraction(draw(st.integers(-40, 40)), 64)
        eps = Fraction(draw(st.integers(-3, 3)), 10 ** draw(st.integers(4, 12)))
        u = min(max(goal[0] + t * dx / 8 - eps * dy / 8, Fraction(0)), Fraction(1))
        v = min(max(goal[1] + t * dy / 8 + eps * dx / 8, Fraction(0)), Fraction(1))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        scale = draw(st.sampled_from([300.0, -300.0, 0.0]))
        nu = 10.0 ** (scale + draw(st.floats(-2.0, 2.0)))
        balls.append((u, v, nu))
    m, k = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    return build(m, k, draw(st.integers(0, m * k // 2)), uq, vs, balls)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_thin_triangles_and_extreme_radii(data):
    assert_matches_brute(_thin_family(data.draw))
