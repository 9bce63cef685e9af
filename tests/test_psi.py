import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest

from mixwidth import (
    BallSpec,
    Dimensions,
    Exponent,
    Instance,
    TargetSpace,
    family_reduce,
    membership,
    mixed_norm,
    parse_exponent,
    phi,
    psi,
    sample_boundary,
    validate_instance,
)
from mixwidth.psi import psi_component
from conftest import make_instance
from helpers import point

E = parse_exponent


class TestValidateInstance:
    def test_valid_unchanged(self, two_ball_instance):
        again = validate_instance(two_ball_instance)
        assert again.balls == two_ball_instance.balls

    def test_duplicates_coalesce_to_smallest(self):
        inst = make_instance(
            4, 4, 4, "2", "2", [("3", "2", 5.0), ("3", "2", 3.0), ("2", "2", 1.0)]
        )
        assert len(inst.balls) == 2
        assert inst.balls[0].nu == 3.0

    def test_equal_points_written_differently_coalesce(self):
        # one reciprocal point (1/2, 1/3) written three ways, around another point
        inst = make_instance(4, 4, 4, "2", "2", [
            ("2", "3", 5.0), ("3", "2", 4.0), ("4/2", "6/2", 2.0), ("2.0", "3.0", 3.0)])
        assert [(b.p.u, b.theta.u, b.nu) for b in inst.balls] == [
            (Fraction(1, 2), Fraction(1, 3), 2.0), (Fraction(1, 3), Fraction(1, 2), 4.0)]

    def test_width_index_over_half(self):
        with pytest.raises(ValueError):
            make_instance(2, 2, 4, "2", "2", [("2", "2", 1.0)])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            make_instance(2, 2, 1, "3/2", "2", [("2", "2", 1.0)])

    def test_empty_family(self):
        with pytest.raises(ValueError):
            Instance(Dimensions(2, 2, 1), TargetSpace(E("2"), E("2")), ())

    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            BallSpec(E("2"), E("2"), 0.0)

    @pytest.mark.parametrize(
        "nu", [10**400, 10**5000, math.nan, math.inf, -math.inf, 0, -1],
        ids=["int-1e400", "int-1e5000", "nan", "inf", "-inf", "0", "-1"],
    )
    def test_radius_outside_float_range_rejected(self, nu):
        with pytest.raises(ValueError, match="radius must lie in"):
            BallSpec(E("1"), E("2"), nu)

    def test_radius_stored_as_float(self):
        ball = BallSpec(E("1"), E("2"), 3)
        assert ball.nu == 3.0 and type(ball.nu) is float
        assert BallSpec(E("1"), E("2"), int(sys.float_info.max)).nu == sys.float_info.max

    def test_int_radius_beyond_int64(self):
        # an int radius past int64 is a float like any other: psi's log
        # arrays would otherwise be object arrays
        def instance(nu):
            return Instance(Dimensions(4, 4, 4), TargetSpace(E("2"), E("2")),
                            (BallSpec(E("1"), E("2"), nu), BallSpec(E("inf"), E("2"), 1.0)))

        assert psi(instance(10**30)) == psi(instance(1e30))

    def test_ints_are_cached(self):
        ball, twin = BallSpec(E("3"), E("4"), 2.0), BallSpec(E("3"), E("4"), 2.0)
        first = ball._ints
        assert ball._ints is first
        assert first == (4, 3, 12)  # (1/3, 1/4) over their least common denominator
        # the cache is no field: equality, hashing and pickling are unchanged
        assert ball == twin and hash(ball) == hash(twin)
        for copy in (pickle.loads(pickle.dumps(ball)), pickle.loads(pickle.dumps(twin))):
            assert copy == ball and hash(copy) == hash(ball)
            assert copy._ints == first
        assert ball != BallSpec(E("3"), E("4"), 3.0)


class TestComponents:
    def test_single_ball_pairs_empty(self):
        inst = make_instance(4, 4, 4, "2", "2", [("3", "2", 1.0)])
        est = psi(inst)
        for j in range(1, 8):
            assert est.components[j] == math.inf and est.certificates.get(j) is None

    @pytest.mark.parametrize("j", [-1, 8])
    def test_component_index_checked(self, two_ball_instance, j):
        with pytest.raises(ValueError, match="component index"):
            psi_component(two_ball_instance, j)

    def test_pair_component_worked(self, two_ball_instance):
        value, cert = psi_component(two_ball_instance, 1)
        assert value == pytest.approx(2.0, rel=1e-12)
        assert cert.indices == (0, 1)
        assert cert.weights == (Fraction(1, 2), Fraction(1, 2))
        assert cert.theta.u == Fraction(1, 2)  # companion exponent is 2

    def test_triangle_with_goal_on_edge_is_empty(self):
        # (1/q, 1/sigma) = (1/4, 1/4) sits on the edge between the first two
        balls = [
            ("2", "2", 1.0),       # (1/2, 1/2)
            ("inf", "inf", 2.0),   # (0, 0)
            ("10", "5/4", 3.0),    # off the diagonal
        ]
        inst = make_instance(8, 8, 4, "4", "4", balls)
        value, cert = psi_component(inst, 6)
        assert value == math.inf and cert is None

    def test_triple_component(self):
        # triangle strictly containing (1/q, 1/sigma) = (1/3, 1/3)
        balls = [("inf", "inf", 1.0), ("1", "3/2", 2.0), ("3/2", "1", 3.0)]
        inst = make_instance(6, 6, 6, "3", "3", balls)
        value, cert = psi_component(inst, 6)
        assert value < math.inf
        ta, tb, tc = cert.weights
        assert ta + tb + tc == 1
        pts = [point(b) for b in inst.balls]
        assert sum(w * p.u for w, p in zip(cert.weights, pts)) == Fraction(1, 3)
        assert sum(w * p.v for w, p in zip(cert.weights, pts)) == Fraction(1, 3)

    def test_critical_component_empty_at_q_two(self):
        balls = [("6", "3/2", 1.0), ("3/2", "6", 1.0)]
        inst = make_instance(6, 6, 6, "2", "3", balls)
        value, cert = psi_component(inst, 5)
        assert value == math.inf and cert is None

    def test_critical_component_hits(self):
        balls = [("6", "5/4", 1.0), ("5/4", "6", 1.0)]
        inst = make_instance(8, 8, 30, "4", "4", balls)
        value, cert = psi_component(inst, 5)
        assert value < math.inf
        # the certificate exponents sit strictly inside (2, q) x (2, sigma)
        assert Fraction(1, 4) < cert.p.u < Fraction(1, 2)
        assert Fraction(1, 4) < cert.theta.u < Fraction(1, 2)


class TestPsi:
    def test_single_ball(self):
        inst = make_instance(4, 6, 5, "2", "3", [("7/2", "5/4", 2.5)])
        est = psi(inst)
        expect = 2.5 * phi(E("7/2"), E("5/4"), inst.target, inst.dims).value
        assert est.value == pytest.approx(expect, rel=1e-12)
        assert est.argmin == (0,)

    def test_worked_two_ball(self, two_ball_instance):
        est = psi(two_ball_instance)
        assert est.value == pytest.approx(2.0, rel=1e-12)
        assert est.argmin == (0, 1, 3)
        assert est.components[0] == pytest.approx(2.0, rel=1e-12)
        assert est.components[2] == math.inf
        for j in (1, 3):
            cert = est.certificates[j]
            assert cert.weights == (Fraction(1, 2), Fraction(1, 2))
            assert cert.theta.u == Fraction(1, 2)

    def test_homogeneity_exact_scale(self, two_ball_instance):
        scaled = Instance(
            two_ball_instance.dims,
            two_ball_instance.target,
            tuple(
                BallSpec(b.p, b.theta, 10.0 * b.nu) for b in two_ball_instance.balls
            ),
        )
        est = psi(scaled)
        assert est.value == pytest.approx(20.0, rel=1e-12)
        assert est.argmin == (0, 1, 3)

    def test_certificate_replay(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            m, k = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            balls = []
            seen = set()
            while len(balls) < 4:
                u = Fraction(int(rng.integers(0, 33)), 32)
                v = Fraction(int(rng.integers(0, 33)), 32)
                if (u, v) in seen:
                    continue
                seen.add((u, v))
                balls.append(
                    BallSpec(Exponent(u), Exponent(v), float(np.exp(rng.uniform(-1, 1))))
                )
            inst = validate_instance(
                Instance(
                    Dimensions(m, k, int(rng.integers(0, m * k // 2 + 1))),
                    TargetSpace(
                        Exponent(Fraction(int(rng.integers(1, 17)), 32)),
                        Exponent(Fraction(int(rng.integers(1, 17)), 32)),
                    ),
                    tuple(balls),
                )
            )
            est = psi(inst)
            for j, cert in est.certificates.items():
                assert sum(cert.weights) == 1
                replay = cert.profile.value
                for idx, w in zip(cert.indices, cert.weights):
                    replay *= inst.balls[idx].nu ** float(w)
                assert replay == pytest.approx(cert.value, rel=1e-12)
                assert est.components[j] == pytest.approx(cert.value, rel=1e-12)
                fresh = phi(cert.p, cert.theta, inst.target, inst.dims)
                assert fresh.value == pytest.approx(cert.profile.value, rel=1e-12)

    def test_continuity_smoke(self):
        # small rational perturbations barely move the estimate
        inst = make_instance(
            32, 32, 100, "3", "4", [("8", "8/3", 1.0), ("5/4", "6", 2.0)]
        )
        base = psi(inst).value
        rng = np.random.default_rng(33)
        for eps_den, cap in ((100, 0.6), (10000, 0.02)):
            worst = 0.0
            for _ in range(10):
                balls = []
                for b in inst.balls:
                    du = Fraction(int(rng.integers(-eps_den, eps_den + 1)), eps_den**2)
                    dv = Fraction(int(rng.integers(-eps_den, eps_den + 1)), eps_den**2)
                    u = min(Fraction(1), max(Fraction(0), b.p.u + du))
                    v = min(Fraction(1), max(Fraction(0), b.theta.u + dv))
                    balls.append(BallSpec(Exponent(u), Exponent(v), b.nu))
                moved = psi(Instance(inst.dims, inst.target, tuple(balls))).value
                worst = max(worst, abs(moved / base - 1.0))
            assert worst < cap


def _ref_phi(u, v, target, dims):
    # value route independent of mixwidth.phi: min over the re-derived branches
    from mixwidth.verify import _reference_branches

    return min(_reference_branches(Fraction(u), Fraction(v), target, dims).values())


def _ref_components(inst):
    """Flat re-enumeration of all eight components, independent of mixwidth.psi."""
    uq, vs = inst.target.q.u, inst.target.sigma.u
    half = Fraction(1, 2)
    pts = [(b.p.u, b.theta.u) for b in inst.balls]
    nus = [b.nu for b in inst.balls]
    out = [math.inf] * 8

    out[0] = min(
        nu * _ref_phi(u, v, inst.target, inst.dims) for (u, v), nu in zip(pts, nus)
    )

    def pair_scan(axis, level, value_at):
        best = math.inf
        for ia, (ua, va) in enumerate(pts):
            for ib, (ub, vb) in enumerate(pts):
                if ia == ib:
                    continue
                a, b = (ua, ub) if axis == 0 else (va, vb)
                ca, cb = (va, vb) if axis == 0 else (ua, ub)
                if a == b or a == level:
                    continue
                w = (level - a) / (b - a)
                if not 0 < w < 1:
                    continue
                comp = (1 - w) * ca + w * cb
                val = nus[ia] ** float(1 - w) * nus[ib] ** float(w) * value_at(comp)
                best = min(best, val)
        return best

    out[1] = pair_scan(0, uq, lambda c: _ref_phi(uq, c, inst.target, inst.dims))
    out[2] = pair_scan(1, vs, lambda c: _ref_phi(c, vs, inst.target, inst.dims))
    out[3] = pair_scan(0, half, lambda c: _ref_phi(half, c, inst.target, inst.dims))
    out[4] = pair_scan(1, half, lambda c: _ref_phi(c, half, inst.target, inst.dims))

    if uq < half and vs < half:
        best = math.inf
        for ia, (ua, va) in enumerate(pts):
            for ib, (ub, vb) in enumerate(pts):
                if ia == ib:
                    continue
                ga = (ua - uq) / (half - uq) - (va - vs) / (half - vs)
                gb = (ub - uq) / (half - uq) - (vb - vs) / (half - vs)
                if ga == 0 or ga == gb:
                    continue
                w = ga / (ga - gb)
                if not 0 < w < 1:
                    continue
                cu = (1 - w) * ua + w * ub
                cv = (1 - w) * va + w * vb
                if not (uq < cu < half and vs < cv < half):
                    continue
                val = (
                    nus[ia] ** float(1 - w)
                    * nus[ib] ** float(w)
                    * _ref_phi(cu, cv, inst.target, inst.dims)
                )
                best = min(best, val)
        out[5] = best

    from itertools import combinations

    for j, (gu, gv) in ((6, (uq, vs)), (7, (half, half))):
        best = math.inf
        for ia, ib, ic in combinations(range(len(pts)), 3):
            (ua, va), (ub, vb), (uc, vc) = pts[ia], pts[ib], pts[ic]
            det = (ub - ua) * (vc - va) - (vb - va) * (uc - ua)
            if det == 0:
                continue
            tb = ((gu - ua) * (vc - va) - (gv - va) * (uc - ua)) / det
            tc = ((ub - ua) * (gv - va) - (vb - va) * (gu - ua)) / det
            ta = 1 - tb - tc
            if not (ta > 0 and tb > 0 and tc > 0):
                continue
            val = (
                nus[ia] ** float(ta)
                * nus[ib] ** float(tb)
                * nus[ic] ** float(tc)
                * _ref_phi(gu, gv, inst.target, inst.dims)
            )
            best = min(best, val)
        out[j] = best
    return out


def test_components_match_independent_reference():
    rng = np.random.default_rng(99)
    for _ in range(120):
        m, k = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        target = TargetSpace(
            Exponent(Fraction(int(rng.integers(1, 513)), 1024)),
            Exponent(Fraction(int(rng.integers(1, 513)), 1024)),
        )
        balls, seen = [], set()
        for _ in range(int(rng.integers(1, 6))):
            u = Fraction(int(rng.integers(0, 1025)), 1024)
            v = Fraction(int(rng.integers(0, 1025)), 1024)
            if (u, v) in seen:
                continue
            seen.add((u, v))
            balls.append(BallSpec(Exponent(u), Exponent(v), float(np.exp(rng.uniform(-1, 1)))))
        inst = validate_instance(
            Instance(
                Dimensions(m, k, int(rng.integers(0, m * k // 2 + 1))),
                target,
                tuple(balls),
            )
        )
        got = psi(inst)
        want = _ref_components(inst)
        for j in range(8):
            if math.isinf(want[j]):
                assert math.isinf(got.components[j]), (j, got.components[j])
            else:
                assert got.components[j] == pytest.approx(want[j], rel=1e-9), j
        assert got.value == pytest.approx(min(want), rel=1e-9)


class TestFamilyReduce:
    def test_single_ball_unchanged(self):
        balls = [BallSpec(E("3"), E("2"), 1.0)]
        assert family_reduce(balls, Fraction(1, 15), 8, 8) == balls

    def test_same_cell_keeps_minimum(self):
        balls = [
            BallSpec(Exponent(Fraction(1, 100)), Exponent(Fraction(1, 100)), 2.0),
            BallSpec(Exponent(Fraction(2, 100)), Exponent(Fraction(1, 100)), 1.0),
        ]
        got = family_reduce(balls, Fraction(1, 15), 8, 8)
        assert len(got) == 1 and got[0].nu == 1.0

    def test_distinct_cells_kept(self):
        balls = [
            BallSpec(Exponent(Fraction(0)), Exponent(Fraction(0)), 1.0),
            BallSpec(Exponent(Fraction(1, 2)), Exponent(Fraction(1, 2)), 2.0),
        ]
        assert family_reduce(balls, Fraction(1, 15), 8, 8) == balls

    def test_delta_admissibility(self):
        with pytest.raises(ValueError):
            family_reduce([BallSpec(E("2"), E("2"), 1.0)], Fraction(1, 2), 8, 8)
        with pytest.raises(ValueError):
            family_reduce([BallSpec(E("2"), E("2"), 1.0)], Fraction(-1, 15), 8, 8)

    def test_sandwich_by_sampling(self):
        rng = np.random.default_rng(44)
        m = k = 8
        balls = []
        seen = set()
        while len(balls) < 40:
            u = Fraction(int(rng.integers(0, 257)), 256)
            v = Fraction(int(rng.integers(0, 257)), 256)
            if (u, v) in seen:
                continue
            seen.add((u, v))
            balls.append(BallSpec(Exponent(u), Exponent(v), float(np.exp(rng.uniform(-0.7, 0.7)))))
        reduced = family_reduce(balls, Fraction(1, 15), m, k)
        assert len(reduced) <= len(balls)
        for i in range(100):
            # points of M lie in M' (subfamily)
            x = sample_boundary(balls, m, k, seed=1000 + i) * rng.uniform(0.0, 1.0)
            ok, _ = membership(x, reduced)
            assert ok
            # points of (1/2) M' lie in M
            y = 0.5 * sample_boundary(reduced, m, k, seed=2000 + i) * rng.uniform(0.0, 1.0)
            ok, _ = membership(y, balls)
            assert ok
