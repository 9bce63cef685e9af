import math
from fractions import Fraction

import numpy as np
import pytest

from mixwidth import (
    BallSpec,
    Exponent,
    corollary_check,
    interpolation_check,
    membership,
    mixed_norm,
    parse_exponent,
    sample_boundary,
)
from mixwidth.norms import membership_ratios
from mixwidth.verify import _rand_exponent, _rand_frac
import norms_brute

E = parse_exponent


def _random_exponent(rng):
    return Exponent(Fraction(int(rng.integers(0, 65)), 64))


class TestMixedNorm:
    def test_single_entry(self):
        x = np.zeros((3, 4))
        x[1, 2] = -2.5
        for p, t in [("1", "1"), ("2", "3"), ("inf", "inf"), ("7/2", "1")]:
            assert mixed_norm(x, E(p), E(t)) == pytest.approx(2.5, rel=1e-14)

    def test_all_ones_2x3(self):
        got = mixed_norm(np.ones((2, 3)), E("2"), E("3"))
        assert got == pytest.approx(3 ** (1 / 3) * 2**0.5, rel=1e-14)

    def test_sup_norm(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5))
        assert mixed_norm(x, E("inf"), E("inf")) == pytest.approx(np.abs(x).max())

    def test_large_exponent_stable(self):
        x = 1e200 * np.ones((2, 2))
        got = mixed_norm(x, E("100"), E("100"))
        assert math.isfinite(got) and got == pytest.approx(1e200 * 4 ** (1 / 100))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mixed_norm(np.array([[1.0, math.inf]]), E("2"), E("2"))

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            p, t = _random_exponent(rng), _random_exponent(rng)
            c = float(np.exp(rng.uniform(-3, 3)))
            assert mixed_norm(c * x, p, t) == pytest.approx(
                c * mixed_norm(x, p, t), rel=1e-12
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            x, y = rng.standard_normal(shape), rng.standard_normal(shape)
            p, t = _random_exponent(rng), _random_exponent(rng)
            assert mixed_norm(x + y, p, t) <= (
                mixed_norm(x, p, t) + mixed_norm(y, p, t)
            ) * (1 + 1e-12)

    def test_monotone_in_exponents(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.standard_normal((5, 5))
            u1 = Fraction(int(rng.integers(0, 65)), 64)
            u2 = Fraction(int(rng.integers(0, 65)), 64)
            if u1 < u2:
                u1, u2 = u2, u1
            # u1 >= u2 means p1 <= p2, so the p2 norm is the smaller one
            t = _random_exponent(rng)
            assert mixed_norm(x, Exponent(u2), t) <= mixed_norm(x, Exponent(u1), t) * (
                1 + 1e-12
            )
            assert mixed_norm(x, t, Exponent(u2)) <= mixed_norm(x, t, Exponent(u1)) * (
                1 + 1e-12
            )

    def test_transpose_when_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.standard_normal((4, 6))
            p = _random_exponent(rng)
            assert mixed_norm(x.T, p, p) == pytest.approx(
                mixed_norm(x, p, p), rel=1e-12
            )

    def test_perturbation_factor_bound(self):
        # moving both reciprocals by less than log2/log(mk) changes the norm
        # by a factor below two
        rng = np.random.default_rng(5)
        m = k = 4
        bound = math.log(2) / math.log(m * k)
        for _ in range(200):
            x = rng.standard_normal((m, k))
            u = Fraction(int(rng.integers(0, 65)), 64)
            v = Fraction(int(rng.integers(0, 65)), 64)
            a = Fraction(int(rng.integers(0, 16)), 64)  # 15/64 < 1/4 = bound
            b = Fraction(int(rng.integers(0, 16)), 64)
            ut = min(Fraction(1), u + a)
            vt = min(Fraction(1), v + b)
            base = mixed_norm(x, Exponent(u), Exponent(v))
            moved = mixed_norm(x, Exponent(ut), Exponent(vt))
            factor = float(m) ** float(ut - u) * float(k) ** float(vt - v)
            assert moved <= factor * base * (1 + 1e-12)
            assert factor < 2.0


class TestMembership:
    def test_zero(self):
        ok, ratio = membership(np.zeros((2, 2)), [BallSpec(E("2"), E("2"), 1.0)])
        assert ok and ratio == 0.0

    def test_outside(self):
        x = np.zeros((2, 2))
        x[0, 0] = 2.0
        ok, ratio = membership(x, [BallSpec(E("2"), E("2"), 1.0)])
        assert not ok and ratio == pytest.approx(2.0)

    def test_boundary_inclusive(self):
        x = np.zeros((2, 2))
        x[0, 0] = 1.0
        ok, ratio = membership(x, [BallSpec(E("2"), E("2"), 1.0)])
        assert ok and ratio == pytest.approx(1.0)

    def test_norms_match_reference_bit_for_bit(self):
        # the stacked norm must equal the per-matrix reference for single
        # matrices and stacks, including zero matrices, a single nonzero
        # column, the p, theta = 1, inf ends and columns of 8 rows or more,
        # which numpy sums in another order
        rng = np.random.default_rng(3)
        for _ in range(80):
            m, k = int(rng.integers(1, 13)), int(rng.integers(1, 6))
            ends = [BallSpec(E("1"), E("inf"), 2.0), BallSpec(E("inf"), E("1"), 2.5)]
            balls = [
                BallSpec(_random_exponent(rng), _random_exponent(rng), float(rng.uniform(0.3, 3)))
                for _ in range(int(rng.integers(1, 4)))
            ] + ends[: int(rng.integers(0, 3))]
            xs = rng.standard_normal((24, m, k)) * np.exp(rng.uniform(-4, 4, (24, m, k)))
            xs[rng.random(xs.shape) < 0.3] = 0.0
            xs[:4, :, 1:] = 0.0
            xs[4] = 0.0
            want = [norms_brute.membership(x, balls) for x in xs]
            assert membership_ratios(xs, balls).tolist() == [r for _, r in want]
            assert [membership(x, balls) for x in xs] == want
            for b in balls:
                assert [mixed_norm(x, b.p, b.theta) for x in xs] == [
                    norms_brute.mixed_norm(x, b.p, b.theta) for x in xs
                ]

    def test_ratios_reject_nonfinite(self):
        xs = np.ones((3, 2, 2))
        xs[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            membership_ratios(xs, [BallSpec(E("2"), E("2"), 1.0)])


class TestInterpolation:
    def test_lambda_zero_is_equality(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3))
        lhs, rhs, holds = interpolation_check(
            x, (E("1"), E("1")), (E("inf"), E("inf")), Fraction(0)
        )
        assert holds and lhs == pytest.approx(rhs, rel=1e-12)

    def test_identical_spaces(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 3))
        lhs, rhs, holds = interpolation_check(
            x, (E("3"), E("2")), (E("3"), E("2")), Fraction(2, 5)
        )
        assert holds and lhs == pytest.approx(rhs, rel=1e-12)

    def test_derived_midpoint(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 3))
        lhs, rhs, holds = interpolation_check(
            x, (E("1"), E("1")), (E("inf"), E("inf")), Fraction(1, 2)
        )
        assert holds

    def test_thousand_random_draws(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            s1 = (_random_exponent(rng), _random_exponent(rng))
            s2 = (_random_exponent(rng), _random_exponent(rng))
            lam = Fraction(int(rng.integers(0, 65)), 64)
            lhs, rhs, holds = interpolation_check(x, s1, s2, lam)
            assert holds, (lhs, rhs, s1, s2, lam)

    def test_matches_reference_on_verify_draws(self):
        # The draws of the interpolation-inequality verify suite.
        rng = np.random.default_rng(15)
        for _ in range(5000):
            x = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            s1 = (_rand_exponent(rng), _rand_exponent(rng))
            s2 = (_rand_exponent(rng), _rand_exponent(rng))
            lam = _rand_frac(rng)
            got = interpolation_check(x, s1, s2, lam)
            assert got == norms_brute.interpolation_check(x, s1, s2, lam)

    def test_matches_reference_at_edges(self):
        # lambda at 0 and 1 (as ints too), decimal floats such as 0.3 (whose
        # 1 - lambda rounds in floats), scaled and zero matrices.
        rng = np.random.default_rng(16)
        for i in range(5000):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            x = rng.standard_normal(shape) * float(np.exp(rng.uniform(-50.0, 50.0)))
            if i % 50 == 0:
                x = np.zeros(shape)
            s1 = (_random_exponent(rng), _random_exponent(rng))
            s2 = (_random_exponent(rng), _random_exponent(rng))
            lam = (Fraction(0), Fraction(1), 0, 1, int(rng.integers(1, 1000)) / 1000)[i % 5]
            got = interpolation_check(x, s1, s2, lam)
            assert got == norms_brute.interpolation_check(x, s1, s2, lam)

    @pytest.mark.parametrize("lam", [Fraction(-1, 2), Fraction(3, 2)])
    def test_lambda_outside_unit_interval(self, lam):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            interpolation_check(np.ones((2, 2)), (E("1"), E("2")), (E("3"), E("4")), lam)


class TestCorollary:
    def test_single_spec_is_equality(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4))
        lhs, rhs, holds = corollary_check(x, [((E("3"), E("2")), Fraction(1))])
        assert holds and lhs == pytest.approx(rhs, rel=1e-12)

    def test_two_specs_match_interpolation(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 4))
        s1, s2 = (E("1"), E("4")), (E("7/2"), E("2"))
        lam = Fraction(3, 7)
        a = interpolation_check(x, s1, s2, lam)
        b = corollary_check(x, [(s1, 1 - lam), (s2, lam)])
        assert a == b

    def test_three_specs_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = rng.standard_normal((4, 4))
            a = Fraction(int(rng.integers(0, 65)), 64)
            b = (1 - a) * Fraction(int(rng.integers(0, 65)), 64)
            specs = [
                ((_random_exponent(rng), _random_exponent(rng)), a),
                ((_random_exponent(rng), _random_exponent(rng)), b),
                ((_random_exponent(rng), _random_exponent(rng)), 1 - a - b),
            ]
            _, _, holds = corollary_check(x, specs)
            assert holds

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            corollary_check(
                np.ones((2, 2)),
                [((E("2"), E("2")), Fraction(1, 2)), ((E("3"), E("3")), Fraction(1, 3))],
            )


class TestSampleBoundary:
    def test_single_euclidean_ball(self):
        x = sample_boundary([BallSpec(E("2"), E("2"), 1.0)], 3, 3, seed=0)
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)

    def test_reproducible(self):
        balls = [BallSpec(E("3"), E("2"), 1.0), BallSpec(E("1"), E("inf"), 2.0)]
        a = sample_boundary(balls, 4, 4, seed=5)
        b = sample_boundary(balls, 4, 4, seed=5)
        assert np.array_equal(a, b)

    def test_ratio_one_on_random_families(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            balls = [
                BallSpec(
                    _random_exponent(rng),
                    _random_exponent(rng),
                    float(np.exp(rng.uniform(-1, 1))),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            x = sample_boundary(balls, 4, 5, seed=100 + trial)
            _, ratio = membership(x, balls)
            assert ratio == pytest.approx(1.0, abs=1e-9)
