import importlib
import math
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from mixwidth import (
    BallSpec,
    ConsistencyError,
    Dimensions,
    Exponent,
    TargetSpace,
    parse_exponent,
    phi,
)
from mixwidth.phi import log_phi_array, profile_params
from mixwidth.verify import _rand_instance, _reference_branches
from helpers import primes_from, single_ball_width_estimate
from phi_brute import brute_log_phi_array, brute_phi, omega

E = parse_exponent
phi_module = importlib.import_module("mixwidth.phi")


def target(q, s):
    return TargetSpace(E(q), E(s))


class TestDimensions:
    def test_width_index_cap(self):
        with pytest.raises(ValueError):
            Dimensions(4, 4, 9)
        Dimensions(4, 4, 8)
        Dimensions(3, 3, 4)  # 2*4 <= 9

    def test_positive(self):
        with pytest.raises(ValueError):
            Dimensions(0, 4, 0)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            Dimensions(4, 4, -1)

    def test_integers_only(self):
        with pytest.raises(ValueError, match="must be integers"):
            Dimensions(4, 4.0, 2)


def test_disagreeing_branches_raise(monkeypatch):
    # branches that hold at one point agree within _REL_BRANCH_TOL; with a
    # negative tolerance no two values agree, and even one branch fails
    monkeypatch.setattr(phi_module, "_REL_BRANCH_TOL", -1.0)
    with pytest.raises(ConsistencyError, match="applicable branches disagree"):
        phi(E("2"), E("2"), target("3", "3"), Dimensions(4, 4, 2))


class TestTargetSpace:
    @pytest.mark.parametrize("bad", ["1", "3/2", "inf"])
    def test_range(self, bad):
        with pytest.raises(ValueError):
            target(bad, "2")


class TestOmega:
    def test_equal_exponents_above_two(self):
        assert omega(E("6"), E("6")) == 0

    def test_p_two(self):
        assert omega(E("2"), E("7")) == 1
        assert omega(E("2"), E("2")) == 1

    def test_derived(self):
        assert omega(E("3"), E("6")) == Fraction(1, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            omega(E("6"), E("3"))


class TestPhiExamples:
    def test_sup_ball_into_l2(self):
        for n in (0, 1, 9, 18):
            got = phi(E("inf"), E("inf"), target("2", "2"), Dimensions(4, 9, n))
            assert got.value == pytest.approx(6.0, rel=1e-12)

    def test_euclidean_ball(self):
        got = phi(E("2"), E("2"), target("2", "2"), Dimensions(4, 4, 8))
        assert got.value == 1.0
        assert 6 in got.branches

    def test_case_one_at_n_zero(self):
        got = phi(E("4"), E("4"), target("2", "2"), Dimensions(16, 16, 0))
        assert got.value == pytest.approx(4.0, rel=1e-12)
        assert got.branches == (1,)

    def test_single_ball_estimates(self):
        d = Dimensions(4, 4, 8)
        assert single_ball_width_estimate(
            BallSpec(E("2"), E("2"), 1.0), target("2", "2"), d
        ) == pytest.approx(1.0)
        assert single_ball_width_estimate(
            BallSpec(E("inf"), E("inf"), 5.0), target("2", "2"), Dimensions(4, 9, 3)
        ) == pytest.approx(30.0)

    def test_boundary_p_eq_q_theta_eq_sigma(self):
        # on the full boundary the applicable branches all evaluate to 1
        d = Dimensions(8, 8, 16)  # n <= m^{2/q} k^{2/sigma} = 64^{...}
        got = phi(E("3"), E("4"), target("3", "4"), d)
        assert got.value == pytest.approx(1.0, rel=1e-12)
        assert 1 in got.branches


def _random_exponent(rng):
    return Exponent(Fraction(int(rng.integers(0, 97)), 96))


def _random_target(rng):
    return TargetSpace(
        Exponent(Fraction(int(rng.integers(1, 49)), 96)),
        Exponent(Fraction(int(rng.integers(1, 49)), 96)),
    )


class TestPhiProperties:
    def test_transpose_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p, t = _random_exponent(rng), _random_exponent(rng)
            tg = _random_target(rng)
            m, k = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            n = int(rng.integers(0, m * k // 2 + 1))
            a = phi(p, t, tg, Dimensions(m, k, n)).value
            b = phi(t, p, TargetSpace(tg.sigma, tg.q), Dimensions(k, m, n)).value
            assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            p, t = _random_exponent(rng), _random_exponent(rng)
            tg = _random_target(rng)
            m, k = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            half = m * k // 2
            n1 = int(rng.integers(0, half + 1))
            n2 = int(rng.integers(n1, half + 1))
            v1 = phi(p, t, tg, Dimensions(m, k, n1)).value
            v2 = phi(p, t, tg, Dimensions(m, k, n2)).value
            assert v2 <= v1 * (1 + 1e-12)

    def test_monotone_in_p_on_case_one(self):
        # on the p >= q, theta >= sigma region the value grows with 1/q - 1/p,
        # so enlarging p (smaller reciprocal) never decreases it
        rng = np.random.default_rng(7)
        for _ in range(200):
            tg = _random_target(rng)
            u2 = Fraction(int(rng.integers(0, tg.q.u.numerator * 96 // tg.q.u.denominator + 1)), 96)
            u1 = Fraction(int(rng.integers(0, u2.numerator * 96 // u2.denominator + 1)), 96)
            v = Fraction(int(rng.integers(0, tg.sigma.u.numerator * 96 // tg.sigma.u.denominator + 1)), 96)
            m, k = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            d = Dimensions(m, k, int(rng.integers(0, m * k // 2 + 1)))
            bigger_p = phi(Exponent(u1), Exponent(v), tg, d).value
            smaller_p = phi(Exponent(u2), Exponent(v), tg, d).value
            assert bigger_p >= smaller_p * (1 - 1e-12)

    def test_global_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            p, t = _random_exponent(rng), _random_exponent(rng)
            tg = _random_target(rng)
            m, k = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            d = Dimensions(m, k, int(rng.integers(0, m * k // 2 + 1)))
            value = phi(p, t, tg, d).value
            cap = max(1.0, float(m) ** float(tg.q.u) * float(k) ** float(tg.sigma.u))
            assert 0 < value <= cap * (1 + 1e-12)

    def test_branch_overlap_on_boundaries(self):
        rng = np.random.default_rng(9)
        for _ in range(400):
            tg = _random_target(rng)
            uq, vs = tg.q.u, tg.sigma.u
            u = Fraction(int(rng.integers(0, 97)), 96)
            v = Fraction(int(rng.integers(0, 97)), 96)
            kind = int(rng.integers(0, 5))
            if kind == 0:
                u = uq
            elif kind == 1:
                v = vs
            elif kind == 2:
                u = Fraction(1, 2)
            elif kind == 3:
                v = Fraction(1, 2)
            else:
                w = Fraction(int(rng.integers(1, 96)), 96)
                u = uq + w * (Fraction(1, 2) - uq)
                v = vs + w * (Fraction(1, 2) - vs)
            m, k = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            d = Dimensions(m, k, int(rng.integers(0, m * k // 2 + 1)))
            got = phi(Exponent(u), Exponent(v), tg, d)  # internal agreement assert
            if kind in (0, 1) or (kind == 4 and u <= Fraction(1, 2)):
                assert len(got.branches) >= 2


def _outcome(f, *args):
    try:
        got = f(*args)
    except Exception as exc:  # the exception type must match too
        return type(exc)
    return got.value, got.branches


def _brute_points(rng, count):
    """Seeded points mixing n = 0, q or sigma = 2, m or k = 1, m, k up to 1e150,
    and points on the region boundaries (u = 1/q, v = 1/sigma, 1/2, the
    critical line) where several branches hold."""
    half = Fraction(1, 2)
    for i in range(count):
        uq = half if i % 6 == 1 else Fraction(int(rng.integers(1, 49)), 96)
        vs = half if i % 6 == 2 else Fraction(int(rng.integers(1, 49)), 96)
        if i % 6 == 3:
            m, k = (1, int(rng.integers(1, 40))) if i % 12 == 3 else (int(rng.integers(1, 40)), 1)
        elif i % 6 == 4:
            m, k = (int(10 ** rng.uniform(0, 150)) for _ in range(2))
        else:
            m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        if i % 5 == 0:
            n = 0
        elif m * k < 2**62:
            n = int(rng.integers(0, m * k // 2 + 1))
        else:
            n = min(int(10 ** rng.uniform(0, math.log10(m * k / 2))), m * k // 2)
        u = Fraction(int(rng.integers(0, 97)), 96)
        v = Fraction(int(rng.integers(0, 385)), 384)
        kind = int(rng.integers(0, 6))
        if kind == 0:
            u = uq
        elif kind == 1:
            v = vs
        elif kind == 2:
            u = half
        elif kind == 3:
            w = Fraction(int(rng.integers(0, 97)), 96)
            u, v = uq + w * (half - uq), vs + w * (half - vs)
        yield Exponent(u), Exponent(v), TargetSpace(Exponent(uq), Exponent(vs)), Dimensions(m, k, n)


def _coprime_points(rng, count):
    """Seeded points whose u, v, 1/q and 1/sigma have distinct prime denominators
    near 10^6, now and then moved onto a region boundary (u = 1/q, v = 1/sigma,
    u = 1/2, or the critical line at a weight over a further prime)."""
    primes = primes_from(10**6, 24)
    half = Fraction(1, 2)
    for i in range(count):
        du, dv, dq, ds, dw = (primes[int(j)] for j in rng.choice(len(primes), 5, replace=False))
        uq = half if i % 7 == 1 else Fraction(int(rng.integers(1, dq // 2)), dq)
        vs = half if i % 7 == 2 else Fraction(int(rng.integers(1, ds // 2)), ds)
        u, v = Fraction(int(rng.integers(0, du + 1)), du), Fraction(int(rng.integers(0, dv + 1)), dv)
        kind = int(rng.integers(0, 6))
        if kind == 0:
            u = uq
        elif kind == 1:
            v = vs
        elif kind == 2:
            u = half
        elif kind == 3:
            w = Fraction(int(rng.integers(0, dw + 1)), dw)
            u, v = uq + w * (half - uq), vs + w * (half - vs)
        m, k = int(rng.integers(1, 4097)), int(rng.integers(1, 4097))
        n = 0 if i % 5 == 0 else int(rng.integers(0, m * k // 2 + 1))
        yield Exponent(u), Exponent(v), TargetSpace(Exponent(uq), Exponent(vs)), Dimensions(m, k, n)


class TestOneTranscription:
    def test_matches_two_transcription_reference(self):
        # phi must equal the branch-by-branch power form it replaced, bit for bit
        rng = np.random.default_rng(21)
        for args in chain(_brute_points(rng, 20000), _coprime_points(rng, 4000)):
            assert _outcome(phi, *args) == _outcome(brute_phi, *args), args

    def test_matches_reference_branches_on_sixteenth_grid(self):
        # verify's straight-line transcription is independent of _branches
        rng = np.random.default_rng(22)
        grid = [Fraction(i, 16) for i in range(17)]
        pts = [(u, v) for u in grid for v in grid]
        uf, vf = np.array([float(u) for u, _ in pts]), np.array([float(v) for _, v in pts])
        for _ in range(40):
            inst = _rand_instance(rng)
            tg, d = inst.target, inst.dims
            want = [min(_reference_branches(u, v, tg, d).values()) for u, v in pts]
            got = [phi(Exponent(u), Exponent(v), tg, d).value for u, v in pts]
            assert got == pytest.approx(want, rel=1e-12)
            got_log = log_phi_array(uf, vf, profile_params(tg, d))
            assert got_log == pytest.approx(np.log(want), rel=1e-9, abs=1e-9)

    def test_phi_and_array_form_share_the_formulas(self, monkeypatch):
        # `mixwidth.phi` is the re-exported function, so reach the module
        module = importlib.import_module("mixwidth.phi")
        branches = module._branches
        monkeypatch.setattr(
            module, "_branches",
            lambda *a: {j: 2 * value for j, value in branches(*a).items()},
        )
        tg, d = target("3", "4"), Dimensions(16, 8, 5)
        pts = [(Fraction(1, 5), Fraction(1, 6)), (Fraction(2, 5), Fraction(3, 7)),
               (Fraction(3, 4), Fraction(5, 6)), (Fraction(3, 4), Fraction(1, 6))]
        for u, v in pts:
            p, t = Exponent(u), Exponent(v)
            assert phi(p, t, tg, d).value == 2 * brute_phi(p, t, tg, d).value
            got = log_phi_array(np.array([float(u)]), np.array([float(v)]), profile_params(tg, d))
            assert got[0] == pytest.approx(math.log(2 * brute_phi(p, t, tg, d).value), rel=1e-12)


class TestLogPhiArrayRegions:
    def test_matches_every_branch_on_every_point(self):
        # each branch on its own region's points only: the same values
        rng = np.random.default_rng(23)
        points = list(_brute_points(rng, 3000))
        u = np.array([float(p.u) for p, _, _, _ in points])
        v = np.array([float(t.u) for _, t, _, _ in points])
        params = np.array([profile_params(tg, d) for _, _, tg, d in points]).T
        want = [brute_log_phi_array(u[i:i + 1], v[i:i + 1], tg, d)[0]
                for i, (_, _, tg, d) in enumerate(points)]
        np.testing.assert_allclose(log_phi_array(u, v, params), want, rtol=1e-12, atol=1e-12)

    def test_one_call_serves_many_instances(self):
        rng = np.random.default_rng(24)
        insts = [_rand_instance(rng) for _ in range(30)]
        u, v = rng.uniform(0, 1, (30, 50)), rng.uniform(0, 1, (30, 50))
        u[:, :17], v[:, 17:34] = 0.5, 0.5
        params = np.array([profile_params(i.target, i.dims) for i in insts])
        label = np.repeat(np.arange(30), 50)
        got = log_phi_array(u.ravel(), v.ravel(), params[label].T)
        want = np.concatenate([log_phi_array(u[i], v[i], params[i]) for i in range(30)])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
