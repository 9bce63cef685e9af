import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from mixwidth import (
    BallSpec,
    Dimensions,
    Exponent,
    Instance,
    TargetSpace,
    WidthSample,
    exact_width_euclidean_ball,
    exact_width_linf,
    membership,
    numeric_width_estimate,
    parse_exponent,
    phi,
    psi,
    sample_boundary,
    sup_norm_over_M,
    validate_instance,
)
from mixwidth import oracles
from oracle_brute import _dist_to_span as brute_dist_to_span, brute_ascend, brute_width

E = parse_exponent


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_boundary([], 2, 2),
        lambda: membership(np.ones((2, 2)), []),
        lambda: sup_norm_over_M([], 2, 2, E("2"), E("2")),
        lambda: numeric_width_estimate([], 2, 2, 1, E("2"), E("2")),
    ],
    ids=["sample_boundary", "membership", "sup_norm_over_M", "numeric_width_estimate"],
)
def test_empty_family_rejected(call):
    with pytest.raises(ValueError, match="need a nonempty ball family"):
        call()


class TestExactWidths:
    def test_sup_ball(self):
        assert exact_width_linf(4, 2, E("2")) == pytest.approx(math.sqrt(2))
        assert exact_width_linf(4, 4, E("2")) == 0.0
        assert exact_width_linf(5, 0, E("1")) == 5.0

    def test_euclidean(self):
        assert exact_width_euclidean_ball(4, 2) == 1.0
        assert exact_width_euclidean_ball(4, 4) == 0.0
        assert exact_width_euclidean_ball(4, 0) == 1.0

    def test_range(self):
        with pytest.raises(ValueError):
            exact_width_linf(4, 5, E("2"))
        with pytest.raises(ValueError):
            exact_width_euclidean_ball(4, -1)


class TestSupNorm:
    def test_single_ball_closed_form_matches_profile(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            q = Exponent(Fraction(int(rng.integers(1, 17)), 32))
            s = Exponent(Fraction(int(rng.integers(1, 17)), 32))
            u = Fraction(int(rng.integers(0, 33)), 32)
            v = Fraction(int(rng.integers(0, 33)), 32)
            nu = float(np.exp(rng.uniform(-1, 1)))
            ball = BallSpec(Exponent(u), Exponent(v), nu)
            got = sup_norm_over_M([ball], m, k, q, s)
            want = nu * phi(ball.p, ball.theta, TargetSpace(q, s), Dimensions(m, k, 0)).value
            assert got == pytest.approx(want, rel=1e-9)

    def test_small_exponent_ball_sup_is_radius(self):
        # p <= q, theta <= sigma: a single coordinate extremizes
        got = sup_norm_over_M([BallSpec(E("1"), E("3/2"), 2.0)], 4, 4, E("2"), E("2"))
        assert got == pytest.approx(2.0)

    def test_homogeneous_in_radius(self):
        balls = [BallSpec(E("inf"), E("2"), 1.0), BallSpec(E("3/2"), E("4"), 2.0)]
        a = sup_norm_over_M(balls, 3, 3, E("2"), E("2"), seed=1)
        doubled = [BallSpec(b.p, b.theta, 2 * b.nu) for b in balls]
        b = sup_norm_over_M(doubled, 3, 3, E("2"), E("2"), seed=1)
        assert b == pytest.approx(2 * a, rel=1e-9)

    def test_intersection_below_single_ball_sups(self):
        balls = [BallSpec(E("inf"), E("inf"), 1.0), BallSpec(E("2"), E("2"), 1.0)]
        got = sup_norm_over_M(balls, 3, 3, E("2"), E("2"))
        assert got <= 1.0 + 1e-9  # the Euclidean ball caps the sup at 1
        assert got == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("m, k", [(0, 3), (3, 0)])
    def test_dimensions_below_one(self, m, k):
        balls = [BallSpec(E("inf"), E("2"), 1.0), BallSpec(E("2"), E("2"), 1.0)]
        with pytest.raises(ValueError, match="m, k >= 1"):
            sup_norm_over_M(balls, m, k, E("2"), E("2"))
        with pytest.raises(ValueError, match="m, k >= 1"):
            sup_norm_over_M(balls[:1], m, k, E("2"), E("2"))


class TestNumericWidth:
    def test_euclidean_within_ten_percent(self):
        balls = [BallSpec(E("2"), E("2"), 1.0)]
        for m, k, n in [(2, 2, 1), (3, 3, 2), (3, 3, 4)]:
            got = numeric_width_estimate(balls, m, k, n, E("2"), E("2"), seed=7)
            assert isinstance(got, WidthSample)
            assert got.metadata == {"restarts": 64, "iterations": 200, "seed": 7}
            assert abs(got.estimate - 1.0) <= 0.10

    def test_sup_ball_small_case(self):
        # m=1, k=2, n=1 in the Euclidean norm: exact width is 1
        balls = [BallSpec(E("inf"), E("inf"), 1.0)]
        got = numeric_width_estimate(balls, 1, 2, 1, E("2"), E("2"), seed=3)
        assert abs(got.estimate - 1.0) <= 0.10

    def test_oracle_agreement_sup_ball(self):
        balls = [BallSpec(E("inf"), E("inf"), 1.0)]
        for m, k, n, s in [(2, 2, 1, "2"), (3, 3, 2, "2"), (2, 2, 1, "3")]:
            got = numeric_width_estimate(
                balls, m, k, n, E(s), E(s), restarts=64, iters=40, seed=11
            )
            exact = exact_width_linf(m * k, n, E(s))
            assert abs(got.estimate / exact - 1.0) <= 0.15

    def test_full_dimension_is_zero(self):
        balls = [BallSpec(E("2"), E("2"), 1.0)]
        got = numeric_width_estimate(balls, 2, 2, 4, E("2"), E("2"), seed=0)
        assert got.estimate == 0.0

    def test_monotone_in_n(self):
        balls = [BallSpec(E("inf"), E("2"), 1.0), BallSpec(E("1"), E("2"), 3.0)]
        values = [
            numeric_width_estimate(balls, 2, 3, n, E("2"), E("2"), iters=40, seed=5).estimate
            for n in (0, 1, 2, 3)
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a * 1.02

    def test_radius_scaling(self):
        balls = [BallSpec(E("inf"), E("2"), 1.0), BallSpec(E("1"), E("2"), 3.0)]
        a = numeric_width_estimate(balls, 2, 3, 2, E("2"), E("2"), iters=40, seed=9)
        scaled = [BallSpec(b.p, b.theta, 5 * b.nu) for b in balls]
        b = numeric_width_estimate(scaled, 2, 3, 2, E("2"), E("2"), iters=40, seed=9)
        assert abs(b.estimate / (5 * a.estimate) - 1.0) <= 0.01

    def test_deterministic(self):
        balls = [BallSpec(E("3"), E("3/2"), 1.0)]
        a = numeric_width_estimate(balls, 2, 2, 1, E("2"), E("2"), iters=30, seed=13)
        b = numeric_width_estimate(balls, 2, 2, 1, E("2"), E("2"), iters=30, seed=13)
        assert a.estimate == b.estimate

    def test_budget_validation(self):
        balls = [BallSpec(E("2"), E("2"), 1.0)]
        with pytest.raises(ValueError):
            numeric_width_estimate(balls, 2, 2, 1, E("2"), E("2"), restarts=0)
        with pytest.raises(ValueError):
            numeric_width_estimate(balls, 2, 2, 1, E("2"), E("2"), iters=-1)
        with pytest.raises(ValueError):
            numeric_width_estimate(balls, 5, 4, 1, E("2"), E("2"))
        for n in (-1, 5):
            with pytest.raises(ValueError, match=r"need 0 <= n <= m\*k"):
                numeric_width_estimate(balls, 2, 2, n, E("2"), E("2"))
        with pytest.raises(ValueError, match="q and sigma must be finite"):
            numeric_width_estimate(balls, 2, 2, 1, E("inf"), E("2"))

    def test_zero_body(self):
        # radius 5e-324, the least subnormal: every candidate point's norm
        # underflows to 0, and the width is 0 without a search
        with np.errstate(over="ignore"):
            got = numeric_width_estimate([BallSpec(E("2"), E("2"), 5e-324)], 2, 2, 1, E("2"), E("2"),
                                         restarts=2, iters=2)
        assert got == WidthSample(0.0, {"restarts": 2, "iterations": 2, "seed": 0})

    @pytest.mark.parametrize("m, k", [(0, 2), (2, 0), (-2, -3)])
    def test_dimensions_below_one(self, m, k):
        balls = [BallSpec(E("2"), E("2"), 1.0)]
        with pytest.raises(ValueError, match="m, k >= 1"):
            numeric_width_estimate(balls, m, k, 0, E("2"), E("2"))


# Desk-scale intersections: (m, k, n, 1/uq, 1/us, [(p, theta, nu), ...]).
PSI_ORDER_CASES = [
    (2, 2, 2, Fraction(32, 15), Fraction(4), [("2", "32/9", 0.9), ("32/29", "32/5", 1.4)]),
    (3, 3, 4, Fraction(2), Fraction(16, 5), [("4", "4", 1.0)]),
    (2, 3, 3, Fraction(16, 7), Fraction(32, 11),
     [("32/21", "16", 0.8), ("8", "32/25", 1.2), ("2", "2", 1.5)]),
    (4, 4, 2, Fraction(16, 5), Fraction(4), [("inf", "2", 0.7), ("32/27", "8", 1.1)]),
    (2, 4, 3, Fraction(8), Fraction(16, 7), [("16/3", "32/9", 1.0), ("32/23", "32/3", 0.9)]),
]


@functools.lru_cache(maxsize=None)
def _psi_order_case(i):
    """(psi, lock-step estimate, arguments) of PSI_ORDER_CASES[i], computed
    once for the band check and the differential test."""
    m, k, n, uq_inv, us_inv, balls = PSI_ORDER_CASES[i]
    target = TargetSpace(Exponent(1 / uq_inv), Exponent(1 / us_inv))
    inst = validate_instance(
        Instance(
            Dimensions(m, k, n),
            target,
            tuple(BallSpec(E(p), E(t), nu) for p, t, nu in balls),
        )
    )
    args = (inst.balls, m, k, n, target.q, target.sigma, 24, 30, 500 + i)
    num = numeric_width_estimate(
        inst.balls, m, k, n, target.q, target.sigma,
        restarts=24, iters=30, seed=500 + i,
    ).estimate
    return psi(inst).value, num, args


def test_numeric_oracle_tracks_psi_order():
    # on desk-scale intersections the heuristic width stays within a
    # constant band of the order estimate (dominated by it, never far below)
    for i in range(len(PSI_ORDER_CASES)):
        est, num, _ = _psi_order_case(i)
        assert 0.25 * est <= num <= 1.5 * est, (i, est, num)


# The benchmark's oracle cases: (m, k, n, q, sigma, balls).
_TRIPLE = [("32/21", "16", 0.8), ("8", "32/25", 1.2), ("2", "2", 1.5)]
BENCH_ORACLE_CASES = [(2, 3, 3, "2", "2", _TRIPLE), (2, 3, 3, "16/7", "32/11", _TRIPLE)]

# Edges of the lock-step batches: (m, k, n, q, sigma, balls, restarts, iters).
# A non-Euclidean target runs the descent, and its reference ascent costs
# about a second per finalist frame, so most edges use the closed form.
_PAIR = [("2", "3", 1.0), ("inf", "3/2", 1.3)]
_EDGE_CASES = {
    "restarts-1": (2, 2, 1, "2", "2", _PAIR, 1, 4),
    "restarts-7": (2, 2, 1, "2", "2", _PAIR, 7, 3),
    "restarts-9-descent": (2, 2, 2, "3", "3/2", _PAIR, 9, 2),
    "restarts-25": (2, 3, 2, "2", "2", _TRIPLE, 25, 2),
    "iters-1": (2, 2, 1, "2", "2", _PAIR, 5, 1),
    "n-0": (2, 2, 0, "3", "3/2", _PAIR, 4, 3),
    "n-N-1": (2, 2, 3, "3", "3/2", _PAIR, 4, 3),
    "single-ball": (2, 3, 2, "2", "2", [("32/21", "16", 0.8)], 4, 3),
    "q-sigma-2": (2, 2, 1, "2", "2", [("3", "3/2", 1.0)], 6, 5),
    "rows-8": (8, 2, 2, "2", "2", _PAIR, 3, 2),
    "row-1": (1, 4, 1, "2", "2", _PAIR, 3, 2),
    # p = 1, p = inf, theta = 1, theta = inf and finite: every maximizer branch
    "maximizer-branches": (
        2, 2, 1, "2", "2", [("1", "inf", 1.1), ("inf", "1", 1.2), ("3/2", "4", 0.9)], 3, 3,
    ),
    # q = 1 and sigma = 1: the search bound's dual exponent is inf (the max
    # form).  At seed 3 the bound rejects both frames at one perturbation
    # step (step 1 for q = 1, step 0 for sigma = 1) and neither at steps 2-4
    "q-1-descent": (2, 2, 2, "1", "3", [("2", "3", 1.0)], 2, 5),
    "sigma-1-descent": (1, 3, 1, "3", "1", [("2", "3", 1.0)], 2, 5),
}


def _balls(balls):
    return [BallSpec(E(p), E(t), nu) for p, t, nu in balls]


def _same_as_brute(m, k, n, q, sigma, balls, restarts, iters, seed):
    q, sigma, balls = E(q), E(sigma), _balls(balls)
    got = numeric_width_estimate(
        balls, m, k, n, q, sigma, restarts=restarts, iters=iters, seed=seed
    ).estimate
    assert got == brute_width(balls, m, k, n, q, sigma, restarts, iters, seed)


class TestLockStepDifferential:
    """The lock-step search equals the one-frame-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("i", range(len(PSI_ORDER_CASES)))
    def test_psi_order_cases(self, i):
        _, num, args = _psi_order_case(i)
        assert num == brute_width(*args)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", BENCH_ORACLE_CASES, ids=["euclid", "mixed"])
    def test_benchmark_cases(self, case, seed):
        _same_as_brute(*case, 24, 30, seed)

    @pytest.mark.parametrize("name", _EDGE_CASES)
    def test_batch_edges(self, monkeypatch, name):
        m, k, *_, restarts, iters = _EDGE_CASES[name]
        # blocks of 4 restarts, so none of 1, 7, 9 and 25 fills its last block
        points = 3 * m * k + 48  # the columns of _candidate_points
        monkeypatch.setattr(oracles, "SEARCH_CHUNK", 4 * m * k * points)
        _same_as_brute(*_EDGE_CASES[name], seed=3)

    def test_zero_gradient_branch(self):
        # 0.5 e_0 and 0.3 e_1 lie in span(e_0, e_1): their residuals, and so
        # their gradients, are exactly zero, and those chains draw from rng
        m, k, q, sigma = 2, 2, 3.0, 1.5
        balls = _balls(_PAIR)
        X = np.array([[0.5, 0, 0, 0], [0.1, 0.2, 0.5, -0.4], [0, 0.3, 0, 0], [0, 0, 0.4, 0.3]]).T
        eye = np.eye(4)
        frames = [eye[:, :2].copy(), eye[:, [1, 2]].copy()]
        rng_brute, rng = np.random.default_rng(4), np.random.default_rng(4)
        want = [
            brute_ascend(B, X, brute_dist_to_span(B, X, m, k, q, sigma, 120)[0],
                         balls, m, k, q, sigma, rng_brute, 120)
            for B in frames
        ]
        Bs = np.stack(frames)
        d, _ = oracles._dist_to_span(Bs, X, m, k, q, sigma, 120)
        assert oracles._ascend(Bs, X, d, balls, m, k, q, sigma, rng, 120) == want
        assert rng.bit_generator.state == rng_brute.bit_generator.state
        assert rng.bit_generator.state != np.random.default_rng(4).bit_generator.state


# Search-bound instances: (m, k, n, q, sigma, balls), the desk cases above
# plus unit exponents (a dual exponent of inf) and exponents below 2.
_BOUND_CASES = [
    (m, k, n, str(q), str(s), balls) for m, k, n, q, s, balls in PSI_ORDER_CASES
] + [
    (2, 2, 1, "1", "3", _PAIR),
    (2, 2, 2, "3", "1", _PAIR),
    (2, 3, 2, "1", "1", _TRIPLE),
    (2, 2, 1, "3/2", "4/3", _PAIR),
    (1, 4, 2, "4/3", "3", _PAIR),
]


def _bound_setup(m, k, n, q, sigma, balls, seed):
    """Normalized candidate points, eight random frames and the float exponents."""
    qf, sf = E(q).value, E(sigma).value
    rng = np.random.default_rng(seed)
    X = oracles._candidate_points(_balls(balls), m, k, rng)
    Xn = X / oracles._norms(X, m, k, qf, sf)[1].max()
    Q = np.linalg.qr(rng.standard_normal((8, m * k, n)))[0]
    return Xn, Q, qf, sf


def _bound(Q, X, m, k, qf, sf):
    _, R, inner, f = oracles._project(Q, X, m, k, qf, sf)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = oracles._grad(R, inner, f, m, k, qf, sf)
    return oracles._search_bound(Q, X, G, m, k, qf, sf)


class TestSearchPrune:
    """The search's dual-gradient bound and the climb's monotone descent."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("i", range(len(_BOUND_CASES)))
    def test_bound_below_brute_descent(self, i):
        m, k, *_ = case = _BOUND_CASES[i]
        Xn, Q, qf, sf = _bound_setup(*case, seed=40 + i)
        lb = _bound(Q, Xn, m, k, qf, sf)
        for B, bound in zip(Q, lb):
            d, _ = brute_dist_to_span(B, Xn, m, k, qf, sf, 25)
            d0, _ = brute_dist_to_span(B, Xn, m, k, qf, sf, 0)
            assert bound * (1.0 - 1e-9) - 1e-12 <= d.max()
            assert (d <= d0).all()  # the descent never ends above its start

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("i", range(len(_BOUND_CASES)))
    def test_rejected_frames_cannot_improve(self, i):
        m, k, *_ = case = _BOUND_CASES[i]
        Xn, Q, qf, sf = _bound_setup(*case, seed=60 + i)
        want = [brute_dist_to_span(B, Xn, m, k, qf, sf, 25)[0].max() for B in Q]
        for fb in (np.full(len(Q), np.median(want)), np.zeros(len(Q))):
            got = oracles._search_dists(Q, Xn, fb, m, k, qf, sf, 25)
            for g, w, b in zip(got, want, fb):
                assert g == w if g < np.inf else w >= b

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q, sigma", [("3", "3/2"), ("1", "3"), ("1", "1")])
    def test_degenerate_columns_never_reject(self, q, sigma):
        m, k = 2, 2
        qf, sf = E(q).value, E(sigma).value
        Q = np.eye(4)[None, :, :2]
        # columns inside span(Q): zero residual and zero gradient, 0/0
        X = np.array([[0.5, 0.0, 0.0, 0.0], [0.1, -0.3, 0.0, 0.0]]).T
        assert _bound(Q, X, m, k, qf, sf)[0] == -np.inf
        got = oracles._search_dists(Q, X, np.zeros(1), m, k, qf, sf, 25)
        assert got[0] == brute_dist_to_span(Q[0], X, m, k, qf, sf, 25)[0].max() == 0.0
        # a gradient inside span(Q): H = G - Q Q^T G = 0, so ||H||_* = 0
        X = np.array([[0.5, 0.2, 0.4, 0.1]]).T
        G = np.array([[1.0, -2.0, 0.0, 0.0]]).T[None]
        assert oracles._search_bound(Q, X, G, m, k, qf, sf)[0] == -np.inf


def _one_maximizer(g, m, k, p, theta):
    """`_linear_maximizer` of one gradient as it was written for one: the reference."""
    G = g.reshape(m, k)
    A = np.abs(G)
    if p.u == 1:
        a = np.zeros_like(G)
        rows = A.argmax(axis=0)
        cols = np.arange(k)
        a[rows, cols] = np.sign(G[rows, cols])
        c = A.max(axis=0)
    elif p.u == 0:
        a = np.sign(G)
        c = A.sum(axis=0)
    else:
        pd = oracles._dual(1.0 / float(p.u))
        c = oracles._pnorm(A, pd, 0)
        a = np.zeros_like(G)
        nz = c > 0
        a[:, nz] = np.sign(G[:, nz]) * (A[:, nz] / c[nz]) ** (pd - 1.0)
    if theta.u == 1:
        s = np.zeros(k)
        s[c.argmax()] = 1.0
    elif theta.u == 0:
        s = np.ones(k)
    else:
        td = oracles._dual(1.0 / float(theta.u))
        cd = oracles._pnorm(c, td, 0)
        s = (c / cd) ** (td - 1.0) if cd > 0 else np.zeros(k)
    return (a * s[None, :]).reshape(-1)


class TestStackedLinearMaximizer:
    """`_linear_maximizer` on a stack of gradients equals it on each row alone.

    `_climb` calls it once per ball over every live chain; the reference in
    `tests/oracle_brute.py` calls it on one gradient at a time.  Both must
    equal `_one_maximizer`, the single-gradient transcription, bit for bit.
    """

    # k = 1 with m >= 9: each column's norm is one contiguous sum, where
    # numpy's pairwise summation could order a stack differently.
    @pytest.mark.parametrize("m, k", [(1, 1), (2, 3), (3, 2), (1, 12), (9, 1), (17, 1), (33, 2), (4, 4)])
    def test_rows_equal_single_calls(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        exps = [Exponent(Fraction(u)) for u in ("0", "1", "1/3", "5/7", "1/2", "99/100")]
        for p in exps:
            for theta in exps:
                g = rng.standard_normal((3, 4, m * k)) * math.exp(rng.uniform(-3, 3))
                g[0, 0] = 0.0
                g[0, 1].reshape(m, k)[:, 0] = 0.0  # an all-zero column
                g[0, 2].reshape(m, k)[0] = 0.0  # an all-zero row
                g[1, 0] *= 1e-300
                got = oracles._linear_maximizer(g, m, k, p, theta)
                for f in (oracles._linear_maximizer, _one_maximizer):
                    want = np.array([[f(row, m, k, p, theta) for row in rows] for rows in g])
                    assert got.shape == g.shape
                    assert np.array_equal(got, want), (f, p, theta)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (f, p, theta)
