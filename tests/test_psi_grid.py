"""The anchor screen of psi_6 and psi_7 against the flat path, the per-middle-index grid and brute force.

Families of more than 30 balls screen their triples anchor ball by anchor
ball, least height above each goal's LP supporting plane first, value each
triple in the screen so that only the triples within the window of the
least value reach stage 2, stop a goal once no later anchor can reach that
window, and cut each anchor's pairs to those with a later anchor low
enough to reach it.
The same family on the flat path (FLAT_TRIPLES raised) screens every triple
and values them all in stage 2, and `tests/grid_brute.py` screens every
triple per middle index, so all three must agree with `==` on every
component and certificate, and with `tests/psi_brute.py` where it reaches.
"""

import importlib
import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mixwidth import psi
from mixwidth.phi import log_phi_array
from conftest import build
from grid_brute import grid_triples
from psi_brute import brute_component

psi_module = importlib.import_module("mixwidth.psi")


def _cells(rng, size, grid=1024, low=0):
    cells = rng.choice((grid + 1 - low) ** 2, size=size, replace=False)
    side = grid + 1 - low
    return [(Fraction(low + int(c) // side, grid), Fraction(low + int(c) % side, grid)) for c in cells]


def _family(rng, points, radius, uq=None, vs=None):
    uq = Fraction(int(rng.integers(8, 33)), 64) if uq is None else uq
    vs = Fraction(int(rng.integers(8, 33)), 64) if vs is None else vs
    m, k = (int(x) for x in rng.choice([64, 4096], size=2))
    return build(m, k, int(rng.integers(1, m * k // 2 + 1)), uq, vs,
                 [(u, v, radius()) for u, v in points])


def _random(rng, size):
    return _family(rng, _cells(rng, size), lambda: float(np.exp(rng.uniform(-1.5, 1.5))))


def _levels(rng, size):
    # three radius levels: every triangle on one level ties with the others
    return _family(rng, _cells(rng, size, 64), lambda: float(rng.choice([0.5, 1.0, 2.0])))


def _equal(rng, size):
    return _family(rng, _cells(rng, size, 64), lambda: 1.0)


def _extreme(rng, size, top=300.0):
    return _family(rng, _cells(rng, size),
                   lambda: 10.0 ** (float(rng.choice([top, -top])) + float(rng.uniform(-2, 2))))


def _overflowing(rng, size):
    # past about 1e+-304 a triple's float product could leave the normal
    # range: the screen keeps every contained triple, and stage 3 confirms
    # most of them
    return _extreme(rng, size, 305.0)


def _target_two(rng, size):
    half = Fraction(1, 2)
    uq, vs = (half, None) if rng.integers(0, 2) else (None, half)
    return _family(rng, _cells(rng, size), lambda: float(np.exp(rng.uniform(-1, 1))), uq, vs)


def _goal_on_edge(rng, size):
    # balls mirrored through both goals, one ball at each goal, the rest random;
    # small radii on the mirrored pairs and at the goals make the degenerate
    # triangles the least, were they admitted
    uq, vs = Fraction(int(rng.integers(8, 33)), 64), Fraction(int(rng.integers(8, 33)), 64)
    balls = {}
    for gu, gv in ((uq, vs), (Fraction(1, 2), Fraction(1, 2))):
        balls[gu, gv] = 0.01
        for _ in range(3):
            du, dv = (Fraction(int(rng.integers(-8, 9)), 64) for _ in range(2))
            balls[gu + du, gv + dv] = balls[gu - du, gv - dv] = 0.01
    for point in _cells(rng, size):
        if len(balls) < size:
            balls.setdefault(point, float(np.exp(rng.uniform(-1, 1))))
    m, k = (int(x) for x in rng.choice([64, 4096], size=2))
    return build(m, k, int(rng.integers(1, m * k // 2 + 1)), uq, vs,
                 [(u, v, nu) for (u, v), nu in balls.items()])


def _outside(rng, size):
    # every ball has 1/p > 1/2, beyond both goals: psi_6 = psi_7 = inf
    return _family(rng, _cells(rng, size, 128, 65), lambda: float(np.exp(rng.uniform(-1, 1))))


def _margin_levels(rng, size):
    # Log radii 0, 1, and the window's edge above 0 perturbed by up to 1.5
    # times the anchor bound's margin: triples on that middle level are in
    # the window of those on level 0, or just out of it, so a bound that
    # stopped an anchor a margin too early would drop some.
    inst = _family(rng, _cells(rng, size), lambda: 1.0)
    edge = psi_module._log_window(inst.target, inst.dims, 1.0)
    slack = 1e-9 * (2.0 + np.abs(_screen(inst)[3]).max())
    levels = [float(rng.choice([0.0, 1.0, edge + slack * rng.uniform(-1.5, 1.5)])) for _ in inst.balls]
    return build(inst.dims.m, inst.dims.k, inst.dims.n, inst.target.q.u, inst.target.sigma.u,
                 [(b.p.u, b.theta.u, math.exp(level)) for b, level in zip(inst.balls, levels)])


def _affine(rng, size, near=False):
    # log nu affine in (1/p, 1/theta), the tilted analogue of equal radii:
    # every triangle about a goal has the value of the plane there, so the
    # tilt can neither stop an anchor nor cut a pair.  `near` moves each log
    # radius by up to 1.5 times the screen's margin, so that the triples tie
    # within it.
    c = rng.uniform(-1.0, 1.0, 3)
    inst = _family(rng, _cells(rng, size), lambda: 1.0)
    lift = [c[0] + c[1] * float(b.p.u) + c[2] * float(b.theta.u) for b in inst.balls]
    if near:
        err = 16 * sys.float_info.epsilon / psi_module._DET_MARGIN
        tilt = abs(c[1]) + abs(c[2])
        lgoal = np.abs(_screen(inst)[3]).max()
        margin = tilt * err + 1e-9 * (1.0 + lgoal + max(map(abs, lift)) + tilt)
        lift = [x + margin * rng.uniform(-1.5, 1.5) for x in lift]
    return build(inst.dims.m, inst.dims.k, inst.dims.n, inst.target.q.u, inst.target.sigma.u,
                 [(b.p.u, b.theta.u, math.exp(x)) for b, x in zip(inst.balls, lift)])


def _affine_near(rng, size):
    return _affine(rng, size, near=True)


def _steep(rng, size):
    # a tiny triangle about (1/2, 1/2) with log radii -5, -5 and 5, and every
    # other ball on its low side: goal 7's LP plane rises 5,120 per unit of
    # 1/p, so steeply that its tilt's float error could exceed the window
    cell = lambda u, v: (Fraction(u, 1024), Fraction(v, 1024))
    balls = {cell(511, 511): math.exp(-5), cell(511, 513): math.exp(-5), cell(513, 512): math.exp(5)}
    while len(balls) < size:
        u, v = (int(x) for x in rng.integers(0, 461, 2))
        balls.setdefault(cell(u, v + 300), float(np.exp(rng.uniform(-1, 1))))
    return build(64, 64, 100, Fraction(1, 3), Fraction(1, 4), [(u, v, nu) for (u, v), nu in balls.items()])


def _screen(inst):
    """`_grid_triples`' arguments for one instance, as `psi` passes them."""
    uf, vf, la = inst._ball_arrays
    params = np.array(inst._params)
    lgoal = log_phi_array(np.array([params[0], 0.5]), np.array([params[1], 0.5]), np.tile(params[:, None], 2))
    du, dv = np.stack((uf - params[0], uf - 0.5)), np.stack((vf - params[1], vf - 0.5))
    return du, dv, la, lgoal, inst._window, 0, 6


def on_grid_brute(monkeypatch, inst):
    with monkeypatch.context() as patch:
        patch.setattr(psi_module, "_grid_triples", grid_triples)
        return psi(inst)


def on_flat_path(monkeypatch, inst):
    with monkeypatch.context() as patch:
        patch.setattr(psi_module, "FLAT_TRIPLES", math.comb(len(inst.balls), 3))
        assert psi_module._flat(len(inst.balls))
        return psi(inst)


def assert_grid_matches_flat(monkeypatch, inst):
    """The anchor screen's estimate equals the flat path's and that of the per-middle-index grid."""
    assert not psi_module._flat(len(inst.balls))
    grid = psi(inst)
    for other in on_flat_path(monkeypatch, inst), on_grid_brute(monkeypatch, inst):
        assert grid.components == other.components
        assert dict(grid.certificates) == dict(other.certificates)
        assert grid == other
    return grid


# Equal radii and radii past 1e+-304 confirm every contained triple
# exactly, on both paths, so they stop at 48 balls; q or sigma = 2 and the
# families beyond both goals stop at 80.  That keeps the test quick.
CASES = ([(kind, size) for kind in (_random, _levels, _extreme, _goal_on_edge) for size in (31, 48, 80, 128)]
         + [(kind, size) for kind in (_target_two, _outside, _margin_levels) for size in (31, 48, 80)]
         + [(kind, size) for kind in (_equal, _overflowing, _affine, _affine_near) for size in (31, 48)])


@pytest.mark.parametrize("kind, size", CASES, ids=[f"{k.__name__[1:]}-{n}" for k, n in CASES])
def test_grid_matches_flat(monkeypatch, kind, size):
    # and the per-middle-index grid, and brute force at 31 balls
    rng = np.random.default_rng(size)
    inst = kind(rng, size)
    est = assert_grid_matches_flat(monkeypatch, inst)
    if kind is _outside:
        assert est.components[6:] == (math.inf, math.inf)
    elif kind is not _target_two:
        assert est.components[6] < math.inf and est.components[7] < math.inf
    if size == 31:
        for j in (6, 7):
            assert (est.components[j], est.certificates.get(j)) == brute_component(inst, j), j


# Every generator above, and the hull family below, at the brute force's size.
PAIR_KINDS = (_random, _levels, _equal, _extreme, _overflowing, _target_two, _goal_on_edge, _outside,
              _margin_levels, _affine, _affine_near, _steep, lambda rng, size: _hull_family(rng, []))


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=[k.__name__[1:] for k in PAIR_KINDS[:-1]] + ["hull_family"])
def test_pair_components_match_brute(monkeypatch, kind):
    # The pair components, whose pairs come from anchor balls under each
    # line's floor, equal brute force, as `psi` screens them and with every
    # block screened.
    inst = kind(np.random.default_rng(31), 31)
    est = psi(inst)
    with monkeypatch.context() as patch:
        patch.setattr(psi_module, "BLOCK", 0)
        assert psi(inst) == est
    for j in range(6):
        assert (est.components[j], est.certificates.get(j)) == brute_component(inst, j), j


def test_goal_on_edge_has_balls_at_both_goals():
    edge = _goal_on_edge(np.random.default_rng(1), 40)
    points = {(b.p.u, b.theta.u) for b in edge.balls}
    assert (edge.target.q.u, edge.target.sigma.u) in points and (Fraction(1, 2),) * 2 in points


def test_small_chunks(monkeypatch):
    # one triple per chunk: every anchor's pairs are cut into one chunk per row
    monkeypatch.setattr(psi_module, "TRIPLE_CHUNK", 1)
    assert_grid_matches_flat(monkeypatch, _levels(np.random.default_rng(5), 31))


def test_small_chunks_on_equal_radii(monkeypatch):
    # no goal stops on equal radii: every anchor's pairs, a chunk per row
    monkeypatch.setattr(psi_module, "TRIPLE_CHUNK", 1)
    assert_grid_matches_flat(monkeypatch, _equal(np.random.default_rng(5), 31))


@pytest.mark.parametrize("kind, size", [(_levels, 31), (_random, 33)])
def test_grid_matches_brute(kind, size):
    inst = kind(np.random.default_rng(40 + size), size)
    est = psi(inst)
    for j in (6, 7):
        assert (est.components[j], est.certificates.get(j)) == brute_component(inst, j), j


def _counting(monkeypatch):
    """Patch `_grid_triples` to count the rows it yields, and those it would yield with no window."""
    counts = {"kept": 0, "contained": 0}
    grid = psi_module._grid_triples

    def counted(du, dv, la, lgoal, window, first, slot):
        counts["contained"] += sum(len(label) for label, *_ in grid(
            du, dv, la, lgoal, math.inf, first, slot))
        for batch in grid(du, dv, la, lgoal, window, first, slot):
            counts["kept"] += len(batch[0])
            yield batch

    monkeypatch.setattr(psi_module, "_grid_triples", counted)
    return counts


def test_prune_drops_triples_beyond_the_window(monkeypatch):
    counts = _counting(monkeypatch)
    psi(_random(np.random.default_rng(80), 80))
    assert 0 < counts["kept"] < 0.05 * counts["contained"], counts


def test_prune_keeps_every_triple_on_equal_radii(monkeypatch):
    counts = _counting(monkeypatch)
    psi(_equal(np.random.default_rng(81), 40))
    assert counts["kept"] == counts["contained"] > 0, counts


def test_prune_only_where_no_triple_is_risky(monkeypatch):
    # near 1e+-300 the screen still drops triples; past 1e+-304 it keeps them all
    counts = _counting(monkeypatch)
    psi(_extreme(np.random.default_rng(31), 31))
    assert 0 < counts["kept"] < counts["contained"], counts
    counts.update(kept=0, contained=0)
    psi(_overflowing(np.random.default_rng(31), 31))
    assert counts["kept"] == counts["contained"] > 0, counts


def _peak(batches, done):
    """The tracemalloc peak of `batches` until a batch's rows make `done` true."""
    tracemalloc.start()
    try:
        for _, rows, _, _ in batches:
            if done(rows):
                break
        else:
            raise AssertionError("the batches ended before `done`")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def _memory_family(la):
    rng = np.random.default_rng(2048)
    u, v = rng.integers(0, 1025, size=(2, len(la))) / 1024
    du, dv = np.stack((u - 0.3, u - 0.5)), np.stack((v - 0.4, v - 0.5))
    return psi_module._grid_triples(du, dv, la, np.zeros(2), 1e-5, 0, 6)


def test_grid_memory_has_no_table():
    # The old N x N orientation table alone took 32 MB at 2,048 balls.  With
    # equal radii every ball is an anchor and no goal stops: run through the
    # first anchor's full chunks (TRIPLE_CHUNK triples over both goals)
    # until its pairs reach ball 24.
    assert _peak(_memory_family(np.zeros(2048)), lambda rows: rows[0, 1] >= 24) < 4 * 2**20


def test_anchor_memory_is_bounded():
    # Log radii 1e-8 apart spread more than the window, so the anchors screen
    # them, least first, with every triple in the window: run through the
    # first anchor's 2 million pairs (some 860,000 rows), in chunks, into
    # the second anchor.
    seen = [0]

    def done(rows):
        seen[0] += len(rows)
        return seen[0] >= 1_000_000

    assert _peak(_memory_family(np.arange(2048) * 1e-8), done) < 4 * 2**20


def test_degenerate_triangles_raise_no_warning(monkeypatch):
    # balls on a few lines, through a goal and beside it: det = 0 and
    # coordinates of 0 throughout, on the grid path
    rng = np.random.default_rng(7)
    uq, vs = Fraction(1, 4), Fraction(3, 8)
    points = set()
    for gu, gv in ((uq, vs), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2))):
        du, dv = (Fraction(int(rng.integers(1, 3)), 64) for _ in range(2))
        points |= {(gu + t * du, gv + t * dv) for t in range(-6, 7)}
    inst = build(64, 64, 100, uq, vs, [(u, v, float(rng.choice([0.5, 1.0, 2.0]))) for u, v in points])
    assert not psi_module._flat(len(inst.balls))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = assert_grid_matches_flat(monkeypatch, inst)
    assert est.components[6] < math.inf


def _rows(batches):
    """{(label, row): (weights, unsure)} of the rows of stage-2 batches."""
    return {(int(label), tuple(row)): (tuple(w), bool(u))
            for labels, rows, weights, unsure in batches
            for label, row, w, u in zip(labels.tolist(), rows.tolist(), weights.tolist(), unsure.tolist())}


@pytest.mark.parametrize("kind, size", [(_random, 40), (_random, 64), (_levels, 31), (_levels, 48),
                                        (_margin_levels, 40), (_margin_levels, 64), (_goal_on_edge, 48),
                                        (_equal, 40), (_affine, 40), (_affine_near, 40)])
def test_anchor_screen_keeps_what_can_win(kind, size):
    # Every triple the per-middle-index grid passes on that stage 3 could
    # confirm as a winner is among the anchor screen's rows, with the same
    # float weights: a sure triple within the window of the least value, and
    # an unsure one whose exact value can reach that window.  On equal radii
    # no goal stops and every contained triple is in the window, so the
    # anchor screen passes on the same rows as the grid.
    inst = kind(np.random.default_rng(size), size)
    args = _screen(inst)
    la, lgoal, window = args[2:5]
    ref, new = _rows(grid_triples(*args)), _rows(psi_module._grid_triples(*args))
    assert sum(len(batch[0]) for batch in psi_module._grid_triples(*args)) == len(new)
    assert all(row[0] < row[1] < row[2] for _, row in new)
    if kind is _equal:
        assert new == ref
    sure = {}
    for (label, row), (weights, unsure) in ref.items():
        if not unsure:
            logv = sum(w * la[i] for w, i in zip(weights, row)) + lgoal[label - 6]
            sure[label] = min(sure.get(label, math.inf), logv)
    reached = 0
    for (label, row), (weights, unsure) in ref.items():
        bound = sure.get(label, math.inf) + window
        if unsure:
            exact = psi_module._geometry(inst, label, row, psi_module._goal(inst, label))
            if exact is None:
                continue
            logv = sum(t / det * la[i] for (t, det), i in zip(exact[2], row)) + lgoal[label - 6]
        else:
            logv = sum(w * la[i] for w, i in zip(weights, row)) + lgoal[label - 6]
        if logv <= bound:
            reached += 1
            assert new.get((label, row)) == (weights, unsure), (label, row)
    assert reached > 0
    for key, value in new.items():
        assert ref.get(key, value) == value


def test_last_anchor_with_a_pair_is_screened():
    # Equal radii take the anchors in index order, and the last three balls
    # surround (1/2, 1/2): the last anchor with a pair left must pass on
    # their triple, as the grid does.
    base = _equal(np.random.default_rng(3), 31)
    corners = [(Fraction(1, 128), Fraction(1, 128)), (Fraction(127, 128), Fraction(33, 128)),
               (Fraction(33, 128), Fraction(127, 128))]
    inst = build(base.dims.m, base.dims.k, base.dims.n, base.target.q.u, base.target.sigma.u,
                 [(b.p.u, b.theta.u, 1.0) for b in base.balls] + [(u, v, 1.0) for u, v in corners])
    rows = _rows(psi_module._grid_triples(*_screen(inst)))
    assert rows[7, (31, 32, 33)][1] is False
    assert rows == _rows(grid_triples(*_screen(inst)))


def _contains_spy(monkeypatch):
    """Patch `_contains` to count its calls and the triples screened, over the goals."""
    count = {"triples": 0, "calls": 0}
    contains = psi_module._contains

    def counted(o_ab, o_bc, o_ca):
        count["calls"] += 1
        count["triples"] += o_ca.size
        return contains(o_ab, o_bc, o_ca)

    monkeypatch.setattr(psi_module, "_contains", counted)
    return count


@pytest.mark.parametrize("size, low, high", [(80, 0.002, 0.004), (128, 0.0008, 0.0016)])
def test_anchor_screen_fraction(monkeypatch, size, low, high):
    # the share of the 2 C(N, 3) (triple, goal) pairs the anchor screen
    # meets: the basis triangles, then about 3 N per goal
    count = _contains_spy(monkeypatch)
    inst = _random(np.random.default_rng(size), size)
    est = psi(inst)
    assert low < count["triples"] / (2 * math.comb(size, 3)) < high, count
    assert est == on_grid_brute(monkeypatch, inst)


def test_random_family_screens_in_few_chunks(monkeypatch):
    # the two basis triangles in one call, then both goals' anchors in one chunk
    count = _contains_spy(monkeypatch)
    inst = _random(np.random.default_rng(128), 128)
    assert list(psi_module._grid_triples(*_screen(inst)))
    assert count["calls"] <= 6, count


def _least_contained(inst, g):
    """The least sum of exact weight times log radius over the triangles that strictly contain goal g."""
    goal = psi_module._goal(inst, 6 + g)
    la = inst._ball_arrays[2]
    least = math.inf
    for row in itertools.combinations(range(len(inst.balls)), 3):
        found = psi_module._geometry(inst, 6 + g, row, goal)
        if found is not None:
            least = min(least, sum(t / det * la[i] for (t, det), i in zip(found[2], row)))
    return least


@pytest.mark.parametrize("kind, exact", [(_random, True), (_extreme, True), (_affine_near, True),
                                         (_levels, False), (_equal, False), (_goal_on_edge, False)])
def test_plane_bounds_every_contained_triangle(kind, exact):
    # The walk's plane, lowered onto the lowest lifted point, lies below
    # every lifted point, and its height at the goal is at most the least
    # value of a triangle that contains the goal; on generic families the
    # LP relaxation is exact, and the two agree.
    inst = kind(np.random.default_rng(11), 31)
    du, dv, la = _screen(inst)[:3]
    for g in (0, 1):
        least = _least_contained(inst, g)
        plane = psi_module._plane(du[g], dv[g], la)
        if exact:
            assert plane is not None and least < math.inf, g
        if plane is None:
            continue
        beta, gamma, basis = plane
        t = la - beta * du[g] - gamma * dv[g]
        height = t.min()
        assert (height + beta * du[g] + gamma * dv[g] <= la + 1e-12 * (1.0 + np.abs(la))).all()
        assert height <= least + 1e-12 * (1.0 + abs(least)), g
        if exact:
            assert math.isclose(height, least, rel_tol=1e-12, abs_tol=1e-12), (g, height, least)
            assert t[basis].max() - height <= 1e-12 * (1.0 + abs(height))


@pytest.mark.parametrize("pivots", [0, 1, 2])
def test_walk_cut_short_screens_without_a_plane(monkeypatch, pivots):
    # a walk of at most two pivots keeps an artificial vertex, so it fails:
    # each goal is then skipped outside the hull or screened without a tilt,
    # and every estimate stays that of the flat path
    monkeypatch.setattr(psi_module, "_WALK_PIVOTS", pivots)
    for kind in (_random, _levels, _extreme, _target_two, _goal_on_edge, _outside, _margin_levels, _affine_near):
        for seed in range(3):
            inst = kind(np.random.default_rng(seed), 40)
            du, dv, la = _screen(inst)[:3]
            assert all(psi_module._plane(du[g], dv[g], la) is None for g in (0, 1))
            assert_grid_matches_flat(monkeypatch, inst)


@pytest.mark.parametrize("u, v, la", [
    # four balls 4-16 from the goal, within 1e-4 of a line through it: a
    # pivot admits a triangle whose area, found in another order, is 0, and
    # the walk stops before dividing by it
    ([-15.954, 15.954, -5.318, -3.545], [-9.0, 9.0, -3.0, -2.0], [2.1, -4.5, -2.8, -2.0]),
    # one ball whose offsets' products overflow: no vertex can leave, and
    # the walk stops before taking the least of no ratios
    ([1e200], [1e200], [0.0]),
], ids=["flat-basis", "no-leaving-vertex"])
def test_walk_fails_on_offsets_no_family_has(u, v, la):
    # a goal's offsets are at most sqrt 2, but the walk's guards hold for
    # any offsets: it finds no plane rather than raising
    with np.errstate(over="ignore", invalid="ignore"):
        assert psi_module._plane(np.array(u), np.array(v), np.array(la)) is None


def test_steep_plane_screens_without_its_tilt(monkeypatch):
    # the plane exists, but its tilt's float error bound exceeds the window:
    # the screen takes the heights without the tilt, and its plain margin
    inst = _steep(np.random.default_rng(0), 40)
    du, dv, la = _screen(inst)[:3]
    beta, gamma, _ = psi_module._plane(du[1], dv[1], la)
    reach = max(np.abs(du[1]).max(), np.abs(dv[1]).max())
    err = 16 * sys.float_info.epsilon * reach * reach / psi_module._DET_MARGIN
    assert (abs(beta) + abs(gamma)) * reach * err > inst._window
    est = assert_grid_matches_flat(monkeypatch, inst)
    assert est.components[7] < math.inf


def test_goal_outside_the_hull_is_not_screened(monkeypatch):
    count = _contains_spy(monkeypatch)
    inst = _outside(np.random.default_rng(3), 48)
    assert not list(psi_module._grid_triples(*_screen(inst)))
    assert count["triples"] == 0
    assert psi(inst).components[6:] == (math.inf, math.inf)


def _hull_family(rng, extra):
    # goal (1/4, 3/8): balls on the line v = 3/8 on both sides of it and
    # random balls above, so the goal is on an edge of the hull; `extra`
    # adds balls, at the goal or below the line
    uq, vs = Fraction(1, 4), Fraction(3, 8)
    points = {(uq + Fraction(d, 64), vs) for d in (-5, -2, 3, 7)} | set(extra)
    while len(points) < 40:
        points.add((Fraction(int(rng.integers(0, 65)), 64), vs + Fraction(int(rng.integers(1, 40)), 64)))
    return build(64, 4096, 300, uq, vs, [(u, v, float(np.exp(rng.uniform(-1, 1)))) for u, v in sorted(points)])


@pytest.mark.parametrize("where", ["edge", "vertex", "inside"])
def test_goal_on_the_hull_is_screened(monkeypatch, where):
    # On an edge or at a vertex (a ball at the goal, the rest on one side)
    # the goal is in no triangle, but the hull test cannot be sure of it:
    # the goal is screened, its triangles are all unsure, and psi_6 is inf.
    # One grid step inside the hull it is in some triangle.
    uq, vs = Fraction(1, 4), Fraction(3, 8)
    extra = {"edge": [], "vertex": [(uq, vs)],
             "inside": [(uq, vs - Fraction(1, 64)), (uq - Fraction(1, 64), vs + Fraction(1, 64))]}[where]
    inst = _hull_family(np.random.default_rng(9), extra)
    batches = list(psi_module._grid_triples(*_screen(inst)[:4], math.inf, 0, 6))
    labels = np.concatenate([batch[0] for batch in batches])
    unsure = np.concatenate([batch[3] for batch in batches])
    assert (labels == 6).any()
    est = assert_grid_matches_flat(monkeypatch, inst)
    assert unsure[labels == 6].all() == (where != "inside")
    assert (est.components[6] < math.inf) == (where == "inside")
    assert (est.components[6], est.certificates.get(6)) == brute_component(inst, 6)
