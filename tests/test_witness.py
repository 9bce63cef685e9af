import math
from fractions import Fraction

import numpy as np
import pytest

import mixwidth.witness
from mixwidth import (
    BallSpec,
    ConsistencyError,
    Exponent,
    GroupElement,
    best_witness_lower_bound,
    group_apply,
    membership,
    mixed_norm,
    parse_exponent,
    psi,
    v_extreme_point,
    v_inclusion_scale,
    v_width_lower_bound,
)
from mixwidth.verify import _rand_instance
from conftest import build, make_instance
from helpers import compose, identity, is_general_position, point, solve_rl_loglinear
from witness_brute import brute_witness, inclusion_scale, width_lower_bound

E = parse_exponent


class TestExtremePoint:
    def test_full_block(self):
        assert np.array_equal(v_extreme_point(3, 4, 3, 4), np.ones((3, 4)))

    def test_single_entry(self):
        e = v_extreme_point(3, 4, 1, 1)
        assert e[0, 0] == 1.0 and e.sum() == 1.0

    def test_norm_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            r, l = int(rng.integers(1, m + 1)), int(rng.integers(1, k + 1))
            u = Fraction(int(rng.integers(0, 33)), 32)
            v = Fraction(int(rng.integers(0, 33)), 32)
            got = mixed_norm(v_extreme_point(m, k, r, l), Exponent(u), Exponent(v))
            assert got == pytest.approx(r ** float(u) * l ** float(v), rel=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            v_extreme_point(3, 4, 4, 1)


class TestGroupAction:
    def test_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(group_apply(identity(3, 4), x), x)

    def test_norm_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x = rng.standard_normal((m, k))
            g = GroupElement.random(m, k, rng)
            u = Fraction(int(rng.integers(0, 33)), 32)
            v = Fraction(int(rng.integers(0, 33)), 32)
            a = mixed_norm(x, Exponent(u), Exponent(v))
            b = mixed_norm(group_apply(g, x), Exponent(u), Exponent(v))
            assert b == pytest.approx(a, rel=1e-14)

    def test_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            x = rng.standard_normal((m, k))
            g1 = GroupElement.random(m, k, rng)
            g2 = GroupElement.random(m, k, rng)
            assert np.allclose(
                group_apply(g2, group_apply(g1, x)),
                group_apply(compose(g2, g1), x),
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupElement((0, 0), (0,), (1, 1), (1,))
        with pytest.raises(ValueError):
            GroupElement((0, 1), (0,), (1, 2), (1,))
        with pytest.raises(ValueError, match="lengths must match"):
            GroupElement((0, 1), (0,), (1,), (1,))
        with pytest.raises(ValueError):
            group_apply(identity(2, 2), np.ones((3, 3)))


class TestInclusionScale:
    def test_sup_ball(self):
        balls = [BallSpec(E("inf"), E("inf"), 1.0)]
        for r, l in [(1, 1), (2, 3), (4, 4)]:
            assert v_inclusion_scale(balls, r, l) == pytest.approx(1.0)

    def test_l1_ball(self):
        balls = [BallSpec(E("1"), E("1"), 1.0)]
        assert v_inclusion_scale(balls, 2, 3) == pytest.approx(1 / 6)

    def test_boundary_tightness(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            balls = [
                BallSpec(
                    Exponent(Fraction(int(rng.integers(0, 33)), 32)),
                    Exponent(Fraction(int(rng.integers(0, 33)), 32)),
                    float(np.exp(rng.uniform(-1, 1))),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            r, l = int(rng.integers(1, m + 1)), int(rng.integers(1, k + 1))
            t = v_inclusion_scale(balls, r, l)
            _, ratio = membership(t * v_extreme_point(m, k, r, l), balls)
            assert ratio == pytest.approx(1.0, abs=1e-12)
            # slightly larger scale must leave the intersection
            _, ratio = membership(t * (1 + 1e-6) * v_extreme_point(m, k, r, l), balls)
            assert ratio > 1.0 + 1e-12

    def test_convex_combinations_stay_inside(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, k = 4, 5
            balls = [
                BallSpec(
                    Exponent(Fraction(int(rng.integers(0, 33)), 32)),
                    Exponent(Fraction(int(rng.integers(0, 33)), 32)),
                    float(np.exp(rng.uniform(-1, 1))),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            r, l = int(rng.integers(1, m + 1)), int(rng.integers(1, k + 1))
            t = v_inclusion_scale(balls, r, l) * rng.uniform(0.0, 1.0)
            e = v_extreme_point(m, k, r, l)
            pts = [group_apply(GroupElement.random(m, k, rng), e) for _ in range(8)]
            w = rng.uniform(0, 1, size=8)
            w /= w.sum()
            x = t * sum(wi * pi for wi, pi in zip(w, pts))
            ok, _ = membership(x, balls)
            assert ok


class TestWidthLowerBound:
    def test_below_crossover(self):
        for n in range(0, 9):
            assert v_width_lower_bound(4, 4, 1, 1, n, E("2"), E("2")) == pytest.approx(1.0)

    def test_above_crossover(self):
        got = v_width_lower_bound(16, 16, 1, 1, 32, E("4"), E("4"))
        assert got == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_crossover_agreement(self):
        # q = sigma = 2 puts the crossover at n = m*k for every (r, l); use
        # q = 4 on a shape where it lands at an admissible integer n
        # crossover = m^{1/2} k r^{1/2}: m=16, k=4, r=4 -> 32 = n <= mk/2
        got = v_width_lower_bound(16, 4, 4, 1, 32, E("4"), E("2"))
        low = 4 ** 0.25
        high = 32 ** -0.5 * 16 ** 0.25 * 4 ** 0.5 * 2
        assert got == pytest.approx(low, rel=1e-12)
        assert low == pytest.approx(high, rel=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            v_width_lower_bound(4, 4, 5, 1, 1, E("2"), E("2"))
        with pytest.raises(ValueError):
            v_width_lower_bound(4, 4, 1, 1, 9, E("2"), E("2"))


def _reciprocal(rng, low=0, high=64):
    return Exponent(Fraction(int(rng.integers(low, high + 1)), 64))


class TestScalarReference:
    """The src formulas against their pre-refactor copies in `witness_brute`, with `==`."""

    @staticmethod
    def shapes(rng):
        for _ in range(300):
            m, k = int(rng.integers(1, 5000)), int(rng.integers(1, 5000))
            yield m, k, int(rng.integers(0, m * k // 2 + 1))
            yield m, k, 0
            yield m, k, m * k // 2
        big = 10**30
        for n in (0, 1, int(rng.integers(1, 2**62)) * big, big * big // 2):
            yield big, big, n

    def test_width_lower_bound(self):
        rng = np.random.default_rng(18)
        for m, k, n in self.shapes(rng):
            r, l = int(rng.integers(1, 2**62)) % m + 1, int(rng.integers(1, 2**62)) % k + 1
            for r, l in ((r, l), (1, 1), (m, k)):
                q, sigma = _reciprocal(rng, 1, 32), _reciprocal(rng, 1, 32)
                got = v_width_lower_bound(m, k, r, l, n, q, sigma)
                assert got == width_lower_bound(m, k, r, l, n, q, sigma), (m, k, r, l, n, q, sigma)

    def test_inclusion_scale(self):
        rng = np.random.default_rng(19)
        for m, k, _ in self.shapes(rng):
            balls = [BallSpec(_reciprocal(rng), _reciprocal(rng), float(np.exp(rng.uniform(-5, 5))))
                     for _ in range(int(rng.integers(1, 5)))]
            r, l = int(rng.integers(1, 2**62)) % m + 1, int(rng.integers(1, 2**62)) % k + 1
            for r, l in ((r, l), (1, 1), (m, k)):
                assert v_inclusion_scale(balls, r, l) == inclusion_scale(balls, r, l), (m, k, r, l)

    def test_same_errors(self, monkeypatch):
        # crossover = 16 sqrt(r) = n at r = 4; a negative tolerance makes the
        # branch check there fail in both
        args = (16, 4, 4, 1, 32, E("4"), E("2"))
        assert v_width_lower_bound(*args) == width_lower_bound(*args)
        monkeypatch.setattr(mixwidth.witness, "_REL_BRANCH_TOL", -1.0)
        for fn in (v_width_lower_bound, width_lower_bound):
            with pytest.raises(ConsistencyError):
                fn(*args)
        for bad in ((4, 4, 5, 1, 1), (4, 4, 1, 1, 9), (4, 4, 1, 1, -1)):
            for fn in (v_width_lower_bound, width_lower_bound):
                with pytest.raises(ValueError):
                    fn(*bad, E("2"), E("2"))
        for balls, r, l in (([], 1, 1), ([BallSpec(E("2"), E("2"), 1.0)], 0, 1)):
            for fn in (v_inclusion_scale, inclusion_scale):
                with pytest.raises(ValueError):
                    fn(balls, r, l)


class TestBestWitness:
    def test_sup_ball_derived(self):
        inst = make_instance(4, 4, 8, "2", "2", [("inf", "inf", 1.0)])
        lb, r, l = best_witness_lower_bound(inst)
        # crossover for q=sigma=2 is m*k = 16 >= 8, so LB(r,l) = sqrt(r*l)
        assert (lb, r, l) == (pytest.approx(4.0), 4, 4)
        assert psi(inst).value == pytest.approx(4.0)

    def test_scaling(self):
        inst = make_instance(4, 6, 6, "3", "2", [("inf", "2", 1.0), ("3/2", "4", 2.0)])
        lb1, r1, l1 = best_witness_lower_bound(inst)
        scaled = make_instance(
            4, 6, 6, "3", "2", [("inf", "2", 10.0), ("3/2", "4", 20.0)]
        )
        lb2, r2, l2 = best_witness_lower_bound(scaled)
        assert lb2 == pytest.approx(10 * lb1, rel=1e-12)
        # the original argmax stays optimal (exact ties may re-resolve in floats)
        at_old = v_inclusion_scale(scaled.balls, r1, l1) * v_width_lower_bound(
            4, 6, r1, l1, 6, E("3"), E("2")
        )
        assert at_old == pytest.approx(lb2, rel=1e-12)

    def test_grid_contains_unit_block(self):
        inst = make_instance(4, 4, 4, "2", "2", [("3", "5/2", 0.7), ("5/4", "6", 1.3)])
        lb, _, _ = best_witness_lower_bound(inst)
        floor = min(b.nu for b in inst.balls) * v_width_lower_bound(
            4, 4, 1, 1, 4, E("2"), E("2")
        )
        assert lb >= floor - 1e-12


def sixteenth_family(rng, m, k, n, radii, max_balls=6):
    """Exponents on the 1/16 grid, radii drawn from `radii`."""
    balls = [
        (Fraction(int(rng.integers(0, 17)), 16), Fraction(int(rng.integers(0, 17)), 16),
         float(rng.choice(radii)))
        for _ in range(int(rng.integers(1, max_balls + 1)))
    ]
    uq = Fraction(int(rng.integers(1, 9)), 16)
    vs = Fraction(int(rng.integers(1, 9)), 16)
    return build(m, k, n, uq, vs, balls)


def assert_matches_brute(inst):
    assert best_witness_lower_bound(inst) == brute_witness(inst)


class TestGridDifferential:
    """The numpy grid with scalar confirmation against the full scalar scan.

    `==` on (lb, r, l): the value, the argmax and the tie rule (smallest r,
    then smallest l) must be those of `witness_brute.brute_witness`.
    """

    def test_verify_generator(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            assert_matches_brute(_rand_instance(rng))

    @pytest.mark.parametrize("radii", [(1.0,), (0.5, 1.0, 2.0)])
    def test_sixteenth_grid_plateaus(self, radii):
        # equal or repeated radii on a coarse grid make whole plateaus of
        # cells tie, so the tie rule decides the argmax
        rng = np.random.default_rng(12)
        for _ in range(60):
            m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            n = int(rng.integers(0, m * k // 2 + 1))
            assert_matches_brute(sixteenth_family(rng, m, k, n, radii))

    def test_logarithmic_axis(self):
        rng = np.random.default_rng(13)
        for n in (0, 1, 1000, 4096 * 64 // 2, int(rng.integers(2, 4096 * 32))):
            assert_matches_brute(sixteenth_family(rng, 4096, 64, n, (0.5, 1.0, 2.0)))

    def test_width_index_extremes(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            for n in (0, m * k // 2):
                assert_matches_brute(sixteenth_family(rng, m, k, n, (0.7, 1.3)))

    def test_single_ball(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            n = int(rng.integers(0, m * k // 2 + 1))
            inst = sixteenth_family(rng, m, k, n, (float(np.exp(rng.uniform(-3, 3))),), 1)
            assert len(inst.balls) == 1
            assert_matches_brute(inst)

    @pytest.mark.parametrize("radii", [
        (1e300, 1e-300),
        (1e-300, 3e-300),
        (1.7e308, 1e308),    # the product overflows to inf on many cells
        (1e-310, 5e-324),    # subnormal radii: the products lose precision
    ])
    def test_extreme_radii(self, radii):
        rng = np.random.default_rng(16)
        for _ in range(6):
            m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            n = int(rng.integers(0, m * k // 2 + 1))
            assert_matches_brute(sixteenth_family(rng, m, k, n, radii, 3))

    @pytest.mark.parametrize("dims, q, sigma", [
        # crossover = 16 sqrt(r) puts n = 32 on it at r = 4
        ((16, 4, 32), "4", "2"),
        # n = 979 sits 5.3e-10 (relative) below the crossover at r=19, l=34
        ((59, 49, 979), "16", "8/3"),
    ])
    def test_branch_mismatch_raises_on_both(self, monkeypatch, dims, q, sigma):
        # a negative tolerance turns every branch check at a crossover into a
        # mismatch; both scans must meet one, off the cells near the maximum
        inst = make_instance(*dims, q, sigma, [("inf", "inf", 1.0), ("2", "inf", 3.0)])
        assert_matches_brute(inst)
        monkeypatch.setattr(mixwidth.witness, "_REL_BRANCH_TOL", -1.0)
        with pytest.raises(ArithmeticError):
            brute_witness(inst)
        with pytest.raises(ArithmeticError):
            best_witness_lower_bound(inst)

    def test_axes_beyond_int64(self):
        # m = k = 10**30: the grid's Python ints exceed int64, so its log axes
        # must be built as floats (about 17k cells for the scalar scan)
        rng = np.random.default_rng(17)
        for n in (0, 10**30):
            assert_matches_brute(sixteenth_family(rng, 10**30, 10**30, n, (0.5, 1.0, 2.0), 3))

    def test_confirms_few_cells(self, monkeypatch):
        # the scalar code re-scores a small share of the grid, not all of it
        calls = []
        scale = mixwidth.witness.v_inclusion_scale
        monkeypatch.setattr(
            mixwidth.witness, "v_inclusion_scale", lambda *a: calls.append(a) or scale(*a)
        )
        inst = make_instance(
            64, 64, 1000, "3", "5/2",
            [("1", "2", 1.3), ("inf", "3", 0.7), ("3/2", "inf", 2.0), ("4", "4", 1.0)],
        )
        assert_matches_brute(inst)
        assert 0 < len(calls) < 64 * 64 // 20


class TestLogLinearSolver:
    def test_unit_ratios(self):
        got = solve_rl_loglinear(1.0, 1.0, (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11), Fraction(1, 2)))
        assert got == pytest.approx((1.0, 1.0))

    def test_decoupled(self):
        assert solve_rl_loglinear(2.0, 3.0, (1, 0, 0, 1)) == pytest.approx((2.0, 3.0))

    def test_dependent_rows(self):
        assert solve_rl_loglinear(2.0, 3.0, (Fraction(1, 2), Fraction(1, 4), 1, Fraction(1, 2))) is None

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            e = tuple(Fraction(int(rng.integers(-8, 9)), 8) for _ in range(4))
            if e[0] * e[3] - e[1] * e[2] == 0:
                continue
            r, l = float(np.exp(rng.uniform(-1, 2))), float(np.exp(rng.uniform(-1, 2)))
            ra = r ** float(e[0]) * l ** float(e[1])
            rb = r ** float(e[2]) * l ** float(e[3])
            got = solve_rl_loglinear(ra, rb, e)
            assert got is not None
            assert got[0] == pytest.approx(r, rel=1e-9)
            assert got[1] == pytest.approx(l, rel=1e-9)


def test_loglinear_solution_feeds_witness_grid():
    # for a triple certificate, the closed-form block sizes solved from the
    # radius ratios, clamped and rounded into the grid, score at the level
    # of the grid optimum
    inst = make_instance(
        16, 16, 64, "3", "3",
        [("inf", "inf", 1.0), ("1", "3/2", 2.0), ("3/2", "1", 3.0)],
    )
    est = psi(inst)
    cert = est.certificates[6]
    assert cert.weights == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    a, b, g = (inst.balls[i] for i in cert.indices)
    exps = (a.p.u - b.p.u, a.theta.u - b.theta.u, b.p.u - g.p.u, b.theta.u - g.theta.u)
    solved = solve_rl_loglinear(a.nu / b.nu, b.nu / g.nu, exps)
    assert solved is not None
    r_star, l_star = solved
    lb_best, _, _ = best_witness_lower_bound(inst)
    best_near = 0.0
    for r in {max(1, min(16, math.floor(r_star))), max(1, min(16, math.ceil(r_star)))}:
        for l in {max(1, min(16, math.floor(l_star))), max(1, min(16, math.ceil(l_star)))}:
            best_near = max(
                best_near,
                v_inclusion_scale(inst.balls, r, l)
                * v_width_lower_bound(16, 16, r, l, 64, E("3"), E("3")),
            )
    assert best_near <= lb_best * (1 + 1e-12)
    assert best_near >= lb_best / 4


def test_certificate_inequality_for_top_component():
    # when the estimate is attained by one ball with p > q and theta > sigma
    # on a general-position family, that ball's radius dominates every other
    # ball after the dimension adjustment
    rng = np.random.default_rng(6)
    from mixwidth import Dimensions, Instance, TargetSpace, validate_instance

    checked = 0
    for _ in range(400):
        m = k = int(rng.integers(4, 17))
        target = TargetSpace(
            Exponent(Fraction(int(rng.integers(8, 17)), 32)),
            Exponent(Fraction(int(rng.integers(8, 17)), 32)),
        )
        balls = []
        seen = set()
        while len(balls) < 3:
            if not balls:
                # bias the first ball into the p > q, theta > sigma quadrant
                # with a small radius so it tends to attain the estimate
                u = Fraction(int(rng.integers(0, 64 * target.q.u)), 64)
                v = Fraction(int(rng.integers(0, 64 * target.sigma.u)), 64)
                nu = float(np.exp(rng.uniform(-1.0, -0.3)))
            else:
                u = Fraction(int(rng.integers(0, 65)), 64)
                v = Fraction(int(rng.integers(0, 65)), 64)
                nu = float(np.exp(rng.uniform(-0.3, 1.0)))
            if (u, v) in seen:
                continue
            seen.add((u, v))
            balls.append(BallSpec(Exponent(u), Exponent(v), nu))
        ok, _ = is_general_position([point(b) for b in balls], target.q, target.sigma)
        if not ok:
            continue
        inst = validate_instance(
            Instance(Dimensions(m, k, int(rng.integers(0, m * k // 2 + 1))), target, tuple(balls))
        )
        est = psi(inst)
        if est.argmin != (0,):
            continue
        cert = est.certificates[0]
        alpha = inst.balls[cert.indices[0]]
        if not (alpha.p.u < target.q.u and alpha.theta.u < target.sigma.u):
            continue
        checked += 1
        for beta in inst.balls:
            lhs = (
                alpha.nu
                * m ** float(beta.p.u - alpha.p.u)
                * k ** float(beta.theta.u - alpha.theta.u)
            )
            assert lhs <= beta.nu * (1 + 1e-9)
    assert checked >= 5
