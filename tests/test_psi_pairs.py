"""The pair components' anchor screen: the floor of log Phi on each line, and psi against brute force near it.

A block whose opposite-sign pairs exceed one stage-2 pass takes them from
anchor balls: a pair's log-value is at least its lesser log radius plus
the least log Phi on its line, which lies at one of the line's knots.  The
floor test samples log Phi densely along every line; the families below
put a winning pair's crossing at a knot, or a ball within a few margins of
the reach that decides whether it is an anchor, and compare every pair
component with the exhaustive exact scan.
"""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from mixwidth import Dimensions, Exponent, TargetSpace, psi, psi_many
from mixwidth.phi import log_phi_array, profile_params
from mixwidth.verify import _rand_instance
from conftest import build
from psi_brute import brute_component

psi_module = importlib.import_module("mixwidth.psi")
HALF = Fraction(1, 2)


def _least_knots(target, dims):
    """Each pair line's least log Phi at its knots, as `psi._reach` reads it, and the floor's margin."""
    params = np.array(profile_params(target, dims))
    basis = np.array([params[0], params[1], 0.0, 0.5, 1.0])
    ku, kv = basis[psi_module._KNOTS].T
    lknots = log_phi_array(ku, kv, params)
    # The least window any family of this target and dimensions has.
    margin = psi_module._FLOOR_MARGIN * psi_module._log_window(target, dims, 0.0)
    return lknots[psi_module._LINE_KNOTS].min(axis=1), margin


def _line_points(target, count):
    """`count` points along each pair line, its knots among them: (u, v) for lines 1-5."""
    uq, vs = float(target.q.u), float(target.sigma.u)
    s = np.unique(np.concatenate((np.linspace(0.0, 1.0, count), [uq, vs, 0.5])))
    t = np.linspace(0.0, 1.0, count)
    return [(np.full(len(s), uq), s), (s, np.full(len(s), vs)), (np.full(len(s), 0.5), s),
            (s, np.full(len(s), 0.5)), (uq + t * (0.5 - uq), vs + t * (0.5 - vs))]


def _targets(rng):
    """(target, dims) pairs: random ones, and q = 2, sigma = 2, n = 0, n = mk/2, m = 1, k = 1 and mk = 10^12."""
    cases = []
    for trial in range(48):
        uq, vs = (Fraction(int(rng.integers(1, 33)), 64) for _ in range(2))
        if trial % 6 == 1:
            uq = HALF
        elif trial % 6 == 2:
            vs = HALF
        elif trial % 6 == 3:
            uq = vs = HALF
        m, k = ((1, int(rng.integers(1, 4097))), (int(rng.integers(1, 4097)), 1), (10**6, 10**6),
                tuple(int(x) for x in rng.integers(1, 4097, 2)))[trial % 4]
        n = (0, m * k // 2, int(rng.integers(0, m * k // 2 + 1)))[trial % 3]
        cases.append((TargetSpace(Exponent(uq), Exponent(vs)), Dimensions(m, k, n)))
    return cases


def test_floor_is_below_log_phi_on_every_line():
    # log Phi is concave between the knots of each line, so its least value
    # on the line is at a knot: a dense sample never falls below the least
    # knot value by more than rounding, far inside the floor's margin
    worst = math.inf
    for target, dims in _targets(np.random.default_rng(23)):
        least, margin = _least_knots(target, dims)
        params = profile_params(target, dims)
        for j, (u, v) in enumerate(_line_points(target, 4001)):
            lphi = log_phi_array(u, v, params)
            gap = float(lphi.min() - least[j])
            assert gap >= -margin, (target, dims, j + 1, gap)
            worst = min(worst, gap / (1.0 + abs(least[j])))
    assert worst >= -1e-14, worst


def _force_screen(monkeypatch):
    """Make every block take its pairs from anchors (and every batch its own stage-2 pass)."""
    monkeypatch.setattr(psi_module, "BLOCK", 0)


def _assert_pairs_match_brute(inst, components=range(6)):
    est = psi(inst)
    for j in components:
        assert (est.components[j], est.certificates.get(j)) == brute_component(inst, j), j
    return est


def _knot_pair(rng, line, knot):
    """24 balls, two of radius e^-20 straddling pair line `line` at knot `knot` (an index into its knots):
    their pair crosses the line exactly there, with the least radii of the family by far."""
    uq, vs = Fraction(1, 4), Fraction(1, 3)
    at = dict(zip(range(5), (uq, vs, Fraction(0), HALF, Fraction(1))))
    u0, v0 = (at[int(c)] for c in psi_module._KNOTS[psi_module._LINE_KNOTS[line - 1][knot]])
    d = Fraction(1, 64)
    if line in (1, 3):
        straddle = [(u0 - d, v0), (u0 + 2 * d, v0)]
    elif line in (2, 4):
        straddle = [(u0, v0 - d), (u0, v0 + 2 * d)]
    else:  # across the critical line, through its end
        straddle = [(u0 - d, v0 + d), (u0 + 2 * d, v0 - 2 * d)]
    balls = {(u, v): math.exp(-20.0) for u, v in straddle if 0 <= u <= 1 and 0 <= v <= 1}
    while len(balls) < 24:
        u, v = (Fraction(int(x), 64) for x in rng.integers(0, 65, 2))
        balls.setdefault((u, v), float(np.exp(rng.uniform(-0.5, 0.5))))
    return build(64, 4096, 1000, uq, vs, [(u, v, nu) for (u, v), nu in balls.items()]), (u0, v0)


KNOTS = [(line, knot) for line in range(1, 6) for knot in range(2 if line == 5 else 4)]


@pytest.mark.parametrize("line, knot", KNOTS, ids=[f"line{j}-knot{k}" for j, k in KNOTS])
def test_winning_pair_crosses_at_a_knot(monkeypatch, line, knot):
    # the floor is tight at the winner: its log-value is the lesser log
    # radius plus log Phi at the knot.  The critical line's knots are its
    # ends, where no pair qualifies, so there the straddling pair loses.
    inst, (u0, v0) = _knot_pair(np.random.default_rng(10 * line + knot), line, knot)
    with monkeypatch.context() as patch:
        _force_screen(patch)
        forced = _assert_pairs_match_brute(inst, (0, line))
    est = _assert_pairs_match_brute(inst, (0, line))
    assert est == forced
    cert = est.certificates[line]
    straddled = {inst.balls[i].nu for i in cert.indices} == {math.exp(-20.0)}
    assert straddled == (line < 5)
    if straddled:
        assert (cert.p.u, cert.theta.u) == (u0, v0)


def _reach_spy(monkeypatch):
    """Patch `_reach` to record what it returns."""
    seen = []
    reach = psi_module._reach

    def recorded(*args):
        seen.append(reach(*args))
        return seen[-1]

    monkeypatch.setattr(psi_module, "_reach", recorded)
    return seen


def _pairs_spy(monkeypatch):
    """Patch `_pair_batches` to record the (slot, balls) of every row it yields."""
    seen = []
    batches = psi_module._pair_batches

    def recorded(*args):
        for batch in batches(*args):
            seen.extend(zip(batch[0].tolist(), map(tuple, batch[1].tolist())))
            yield batch

    monkeypatch.setattr(psi_module, "_pair_batches", recorded)
    return seen


@pytest.mark.parametrize("line", range(1, 6))
def test_ball_near_its_reach(monkeypatch, line):
    # The seed (log radius -1) and ball t on its side of the line; the rest
    # lie high.  t's log radius is put a few floor margins below or above
    # the first reach that `_reach` finds after the seeds, so t meets the
    # other side just inside it and not just outside; the pair component
    # must equal brute force either way.
    rng = np.random.default_rng(line)
    _force_screen(monkeypatch)
    cells = rng.choice(65 * 65, size=20, replace=False)
    points = [(Fraction(int(c) // 65, 64), Fraction(int(c) % 65, 64)) for c in cells]
    base = build(64, 4096, 1000, Fraction(1, 4), Fraction(1, 3), [(u, v, 1.0) for u, v in points])
    signs = psi_module._lines(base)[line][1]
    seed = next(i for i, s in enumerate(signs) if s)
    t = next(i for i, s in enumerate(signs) if s == signs[seed] and i != seed)
    lift = [float(rng.uniform(6.0, 7.0)) for _ in points]
    lift[seed], lift[t] = -1.0, 0.0

    def family(lt):
        lift[t] = lt
        return build(64, 4096, 1000, Fraction(1, 4), Fraction(1, 3),
                     [(u, v, math.exp(x)) for (u, v), x in zip(points, lift)])

    reaches = _reach_spy(monkeypatch)
    psi(family(0.0))
    edge = float(reaches[0][line - 1, 0])
    margin = psi_module._FLOOR_MARGIN * family(0.0)._window
    assert -1.0 < edge < 6.0 - 3 * margin
    rows = _pairs_spy(monkeypatch)
    for c in (-3.0, -1.0, -0.25, 0.25, 1.0, 3.0):
        lt = edge + c * margin
        inst = family(lt)
        assert sorted(lift)[1] == lt and inst.balls[t].nu == math.exp(lt)
        reaches.clear()
        rows.clear()
        _assert_pairs_match_brute(inst, (line,))
        assert float(reaches[0][line - 1, 0]) == edge
        met = any(slot == line and t in balls for slot, balls in rows)
        assert met == (inst._ball_arrays[2][t] <= edge)


def test_blocks_of_many_instances(monkeypatch):
    # Blocks of several 8-19 ball families whose pairs exceed BLOCK together
    # are screened as one: each instance's floors, seeds and anchors are its
    # own, and every estimate is `psi`'s.
    screened = []
    reach = psi_module._reach
    monkeypatch.setattr(psi_module, "_reach", lambda vmin, *args: screened.append(vmin.shape[1]) or reach(vmin, *args))
    rng = np.random.default_rng(5)
    insts = [_rand_instance(rng, max_balls=int(rng.integers(8, 20))) for _ in range(60)]
    many = list(psi_many(insts))
    assert max(screened) > 1
    monkeypatch.setattr(psi_module, "_reach", reach)
    assert many == [psi(inst) for inst in insts]
