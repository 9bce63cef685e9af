"""The grid path of psi_6 and psi_7 against the flat path and the brute-force scan.

Families of more than 30 balls screen their triples on a grid per middle
index, for both goals at once, and value each triple in the screen so that
only the triples within the window of the least value reach stage 2.  The
same family on the flat path (FLAT_TRIPLES raised) screens every triple and
values them all in stage 2, so the two must agree with `==` on every
component and certificate.
"""

import importlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mixwidth import psi
from conftest import build
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


def on_flat_path(monkeypatch, inst):
    with monkeypatch.context() as patch:
        patch.setattr(psi_module, "FLAT_TRIPLES", math.comb(len(inst.balls), 3))
        assert psi_module._flat(len(inst.balls))
        return psi(inst)


def assert_grid_matches_flat(monkeypatch, inst):
    assert not psi_module._flat(len(inst.balls))
    grid, flat = psi(inst), on_flat_path(monkeypatch, inst)
    assert grid.components == flat.components
    assert dict(grid.certificates) == dict(flat.certificates)
    assert grid == flat
    return grid


# Equal radii and radii past 1e+-304 confirm every contained triple
# exactly, on both paths, so they stop at 48 balls; q or sigma = 2 and the
# families beyond both goals stop at 80.  That keeps the test quick.
CASES = ([(kind, size) for kind in (_random, _levels, _extreme, _goal_on_edge) for size in (31, 48, 80, 128)]
         + [(kind, size) for kind in (_target_two, _outside) for size in (31, 48, 80)]
         + [(kind, size) for kind in (_equal, _overflowing) for size in (31, 48)])


@pytest.mark.parametrize("kind, size", CASES, ids=[f"{k.__name__[1:]}-{n}" for k, n in CASES])
def test_grid_matches_flat(monkeypatch, kind, size):
    rng = np.random.default_rng(size)
    inst = kind(rng, size)
    est = assert_grid_matches_flat(monkeypatch, inst)
    if kind is _outside:
        assert est.components[6:] == (math.inf, math.inf)
    elif kind is not _target_two:
        assert est.components[6] < math.inf and est.components[7] < math.inf


def test_goal_on_edge_has_balls_at_both_goals():
    edge = _goal_on_edge(np.random.default_rng(1), 40)
    points = {(b.p.u, b.theta.u) for b in edge.balls}
    assert (edge.target.q.u, edge.target.sigma.u) in points and (Fraction(1, 2),) * 2 in points


def test_small_chunks(monkeypatch):
    # five triples per slab: every middle index is cut into one slab per a
    monkeypatch.setattr(psi_module, "TRIPLE_CHUNK", 5)
    assert_grid_matches_flat(monkeypatch, _levels(np.random.default_rng(5), 31))


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


def test_grid_memory_has_no_table():
    # The old N x N orientation table alone took 32 MB at 2,048 balls.  Run
    # the grid past the middle index 16, from which its slabs are full
    # (TRIPLE_CHUNK triples over both goals); equal radii keep every
    # contained triple.
    rng = np.random.default_rng(2048)
    n = 2048
    u, v = rng.integers(0, 1025, size=(2, n)) / 1024
    du, dv = np.stack((u - 0.3, u - 0.5)), np.stack((v - 0.4, v - 0.5))
    la = np.zeros(n)
    batches = psi_module._grid_triples(du, dv, la, np.zeros(2), 1e-5, 0, 6)
    tracemalloc.start()
    try:
        for _, rows, _, _ in batches:
            if rows[0, 1] >= 24:
                break
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0, 1] >= 24
    assert peak < 4 * 2**20, peak


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
