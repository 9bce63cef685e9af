import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixwidth.exponents import (
    Exponent,
    ReciprocalPoint,
    barycentric,
    convex_combine,
    critical_deviation,
    parse_exponent,
    solve_critical_crossing,
    solve_crossing,
)
from helpers import is_general_position, perturb_to_general_position

E = parse_exponent

unit_fracs = st.fractions(min_value=0, max_value=1, max_denominator=64)
weights = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestParseRender:
    def test_inf(self):
        assert parse_exponent("inf").u == 0

    def test_integer(self):
        assert parse_exponent("2").u == Fraction(1, 2)

    def test_fraction(self):
        # exact rational reciprocal: 3/2 -> 2/3
        assert parse_exponent("3/2").u == Fraction(2, 3)

    def test_decimal_is_exact(self):
        assert parse_exponent("2.5").u == Fraction(2, 5)

    @pytest.mark.parametrize("bad", ["", "nope", "0.5", "-3", "1/0", "2x", 3])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_exponent(bad)

    def test_reciprocal_out_of_range(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got 3/2"):
            Exponent(Fraction(3, 2))

    def test_point_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]\^2"):
            ReciprocalPoint(Fraction(1, 2), Fraction(-1, 3))

    @given(u=unit_fracs)
    def test_round_trip(self, u):
        e = Exponent(u)
        assert parse_exponent(e.render()) == e

    def test_value(self):
        assert parse_exponent("inf").value == math.inf
        assert parse_exponent("4").value == 4.0


def _parse_reference(text: str) -> Exponent:
    """The general body of `parse_exponent`, which reads every text through `Fraction`."""
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return Exponent(Fraction(0))
    try:
        value = Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed exponent {text!r}") from None
    if value < 1:
        raise ValueError(f"exponent must be >= 1, got {text!r}")
    return Exponent(1 / value)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


TEXTS = ["1", "01", "2/4", "4/2", "1/0", "0/0", "0/5", "0", "3/", "/3", " 3/2", "3/2 ", "+3", "-3", "3.5",
         "1e3", "1_000", "\u0661\u0662", "\u00b2", "inf", "Infinity", "1024/7", "7/1024", "1/1/1",
         "9" * 5000, "1/" + "9" * 5000, "9" * 5000 + "/1"]


@pytest.mark.parametrize("text", TEXTS, ids=[t if len(t) < 20 else f"{len(t)} chars" for t in TEXTS])
def test_parse_matches_the_fraction_path(text):
    # the digits and digits/digits fast path gives the value, or the message,
    # of the general path
    assert _outcome(parse_exponent, text) == _outcome(_parse_reference, text)


@given(u=st.fractions(min_value=0, max_value=1).filter(lambda u: u > 0) | st.just(Fraction(0)))
def test_render_is_the_reciprocal_as_text(u):
    assert Exponent(u).render() == ("inf" if u == 0 else str(1 / u))


def test_render_on_random_reciprocals():
    rng = random.Random(17)
    for _ in range(2000):
        d = rng.randint(1, 10**rng.randint(1, 30))
        u = Fraction(rng.randint(0, d), d)
        assert Exponent(u).render() == ("inf" if u == 0 else str(1 / u))


class TestConvexCombine:
    def test_midpoint(self):
        assert convex_combine(E("inf"), E("1"), Fraction(1, 2)).u == Fraction(1, 2)

    def test_identical_endpoints(self):
        e = Exponent(Fraction(1, 3))
        assert convex_combine(e, e, Fraction(7, 13)).u == Fraction(1, 3)

    def test_exact_rational(self):
        got = convex_combine(
            Exponent(Fraction(1, 4)), Exponent(Fraction(3, 4)), Fraction(1, 3)
        )
        assert got.u == Fraction(5, 12)

    def test_weight_range(self):
        with pytest.raises(ValueError):
            convex_combine(E("2"), E("3"), Fraction(3, 2))


class TestSolveCrossing:
    def test_midpoint(self):
        w = solve_crossing(Exponent(Fraction(0)), Exponent(Fraction(1)), Exponent(Fraction(1, 2)))
        assert w == Fraction(1, 2)

    def test_degenerate_segment(self):
        e = Exponent(Fraction(1, 3))
        assert solve_crossing(e, e, Exponent(Fraction(1, 2))) is None

    def test_exact_linear_solve(self):
        w = solve_crossing(
            Exponent(Fraction(1, 4)), Exponent(Fraction(3, 4)), Exponent(Fraction(1, 2))
        )
        assert w == Fraction(1, 2)

    def test_first_endpoint_on_target(self):
        assert (
            solve_crossing(Exponent(Fraction(1, 2)), Exponent(Fraction(1, 4)), Exponent(Fraction(1, 2)))
            is None
        )

    @given(a=unit_fracs, b=unit_fracs, t=unit_fracs)
    def test_round_trip(self, a, b, t):
        ea, eb, et = Exponent(a), Exponent(b), Exponent(t)
        w = solve_crossing(ea, eb, et)
        if w is None:
            # either degenerate, endpoint hit, or no interior solution
            if a != b and a != t:
                ww = (t - a) / (b - a)
                assert not 0 < ww < 1
        else:
            assert 0 < w < 1
            assert convex_combine(ea, eb, w) == et


class TestCriticalDeviation:
    def test_line_through_targets(self):
        q, s = E("4"), E("4")
        assert critical_deviation(ReciprocalPoint(q.u, s.u), q, s) == 0
        assert critical_deviation(ReciprocalPoint(Fraction(1, 2), Fraction(1, 2)), q, s) == 0

    def test_derived_value(self):
        got = critical_deviation(ReciprocalPoint(Fraction(1, 2), Fraction(1, 4)), E("4"), E("4"))
        assert got == 1

    def test_undefined_at_two(self):
        with pytest.raises(ValueError):
            critical_deviation(ReciprocalPoint(Fraction(1, 3), Fraction(1, 3)), E("2"), E("4"))

    @given(
        au=unit_fracs, av=unit_fracs, bu=unit_fracs, bv=unit_fracs,
        lam=st.fractions(min_value=0, max_value=1, max_denominator=17),
    )
    def test_affine_along_segments(self, au, av, bu, bv, lam):
        q, s = E("4"), E("3")
        a, b = ReciprocalPoint(au, av), ReciprocalPoint(bu, bv)
        mid = ReciprocalPoint((1 - lam) * au + lam * bu, (1 - lam) * av + lam * bv)
        assert critical_deviation(mid, q, s) == (1 - lam) * critical_deviation(
            a, q, s
        ) + lam * critical_deviation(b, q, s)


class TestSolveCriticalCrossing:
    def test_derived(self):
        a = ReciprocalPoint(Fraction(1, 2), Fraction(1, 4))
        b = ReciprocalPoint(Fraction(1, 4), Fraction(1, 2))
        got = solve_critical_crossing(a, b, E("4"), E("4"))
        assert got is not None
        lam, cross = got
        assert lam == Fraction(1, 2)
        assert (cross.u, cross.v) == (Fraction(3, 8), Fraction(3, 8))
        assert critical_deviation(cross, E("4"), E("4")) == 0

    def test_first_endpoint_on_line(self):
        a = ReciprocalPoint(Fraction(3, 8), Fraction(3, 8))  # deviation 0
        b = ReciprocalPoint(Fraction(1, 4), Fraction(1, 2))
        assert solve_critical_crossing(a, b, E("4"), E("4")) is None

    def test_same_side(self):
        a = ReciprocalPoint(Fraction(1, 2), Fraction(1, 4))
        b = ReciprocalPoint(Fraction(1, 2), Fraction(3, 16))
        assert solve_critical_crossing(a, b, E("4"), E("4")) is None

    def test_crossing_outside_window(self):
        # crossing exists on the line but lands outside (1/q, 1/2) strictly
        a = ReciprocalPoint(Fraction(1), Fraction(0))
        b = ReciprocalPoint(Fraction(0), Fraction(1))
        got = solve_critical_crossing(a, b, E("4"), E("4"))
        if got is not None:
            _, cross = got
            assert Fraction(1, 4) < cross.u < Fraction(1, 2)


class TestBarycentric:
    def test_derived(self):
        got = barycentric(
            ReciprocalPoint(0, 0),
            ReciprocalPoint(1, 0),
            ReciprocalPoint(0, 1),
            ReciprocalPoint(Fraction(1, 2), Fraction(1, 4)),
        )
        assert got == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))

    def test_collinear(self):
        assert (
            barycentric(
                ReciprocalPoint(0, 0),
                ReciprocalPoint(Fraction(1, 2), Fraction(1, 2)),
                ReciprocalPoint(1, 1),
                ReciprocalPoint(Fraction(1, 4), Fraction(1, 4)),
            )
            is None
        )

    def test_target_at_vertex(self):
        a = ReciprocalPoint(0, 0)
        assert barycentric(a, ReciprocalPoint(1, 0), ReciprocalPoint(0, 1), a) is None

    @given(
        au=unit_fracs, av=unit_fracs, bu=unit_fracs, bv=unit_fracs,
        cu=unit_fracs, cv=unit_fracs, tu=unit_fracs, tv=unit_fracs,
    )
    def test_recombination(self, au, av, bu, bv, cu, cv, tu, tv):
        a, b, c = ReciprocalPoint(au, av), ReciprocalPoint(bu, bv), ReciprocalPoint(cu, cv)
        t = ReciprocalPoint(tu, tv)
        got = barycentric(a, b, c, t)
        if got is not None:
            ta, tb, tc = got
            assert ta + tb + tc == 1
            assert ta > 0 and tb > 0 and tc > 0
            assert ta * a.u + tb * b.u + tc * c.u == t.u
            assert ta * a.v + tb * b.v + tc * c.v == t.v


class TestGeneralPosition:
    def test_single_clean_point(self):
        ok, violations = is_general_position(
            [ReciprocalPoint(Fraction(1, 3), Fraction(1, 5))], E("2"), E("2")
        )
        assert ok and violations == []

    def test_shared_u(self):
        ok, violations = is_general_position(
            [
                ReciprocalPoint(Fraction(1, 3), Fraction(1, 5)),
                ReciprocalPoint(Fraction(1, 3), Fraction(2, 5)),
            ],
            E("2"),
            E("2"),
        )
        assert not ok
        assert {c for c, _ in violations} == {2}

    def test_three_collinear(self):
        pts = [
            ReciprocalPoint(Fraction(1, 10), Fraction(1, 10)),
            ReciprocalPoint(Fraction(2, 10), Fraction(2, 10)),
            ReciprocalPoint(Fraction(3, 10), Fraction(3, 10)),
        ]
        ok, violations = is_general_position(pts, E("5"), E("7"))
        assert not ok
        assert 4 in {c for c, _ in violations}

    def test_special_point_on_segment(self):
        # segment through (1/2, 1/2) horizontally
        pts = [
            ReciprocalPoint(Fraction(1, 3), Fraction(1, 2) + Fraction(0)),
            ReciprocalPoint(Fraction(2, 3), Fraction(1, 2)),
        ]
        ok, violations = is_general_position(pts, E("3"), E("3"))
        conditions = {c for c, _ in violations}
        assert not ok
        assert 1 in conditions  # v = 1/2 is itself a violation
        assert 3 in conditions

    def test_critical_line_point(self):
        q, s = E("4"), E("4")
        # midpoint of the critical line
        ok, violations = is_general_position(
            [ReciprocalPoint(Fraction(3, 8), Fraction(3, 8))], q, s
        )
        assert not ok
        assert {c for c, _ in violations} == {1}

    def test_duplicates_rejected(self):
        pt = ReciprocalPoint(Fraction(1, 3), Fraction(1, 5))
        with pytest.raises(ValueError):
            is_general_position([pt, pt], E("2"), E("2"))


class TestPerturb:
    def test_already_general_position_unchanged(self):
        pts = [ReciprocalPoint(Fraction(1, 3), Fraction(1, 5))]
        assert perturb_to_general_position(pts, E("2"), E("2"), 4, 4, seed=1) == pts

    def test_fixes_shared_u_within_bound(self):
        pts = [
            ReciprocalPoint(Fraction(1, 3), Fraction(1, 5)),
            ReciprocalPoint(Fraction(1, 3), Fraction(2, 5)),
        ]
        out = perturb_to_general_position(pts, E("2"), E("2"), 4, 4, seed=3)
        ok, _ = is_general_position(out, E("2"), E("2"))
        assert ok
        bound = math.log(2) / math.log(16)
        for before, after in zip(pts, out):
            assert abs(float(after.u - before.u)) < bound
            assert abs(float(after.v - before.v)) < bound

    def test_deterministic(self):
        pts = [
            ReciprocalPoint(Fraction(1, 2), Fraction(1, 5)),
            ReciprocalPoint(Fraction(1, 3), Fraction(1, 5)),
        ]
        a = perturb_to_general_position(pts, E("3"), E("4"), 8, 8, seed=11)
        b = perturb_to_general_position(pts, E("3"), E("4"), 8, 8, seed=11)
        assert a == b

    def test_rejects_tiny_dims(self):
        with pytest.raises(ValueError):
            perturb_to_general_position(
                [ReciprocalPoint(0, 0)], E("2"), E("2"), 1, 1, seed=0
            )


def test_predicates_are_scale_exact():
    # the same rationals written with a huge common factor decide identically
    big = 10**40
    a = ReciprocalPoint(Fraction(big, 3 * big), Fraction(big, 5 * big))
    b = ReciprocalPoint(Fraction(1, 3), Fraction(1, 5))
    assert a == b
    ok_a, _ = is_general_position([a], E("2"), E("2"))
    ok_b, _ = is_general_position([b], E("2"), E("2"))
    assert ok_a == ok_b
