"""`psi_many` against `psi` and the brute-force scans, on mixed batches.

One block mixes instances of every size, dimension and target, so every
value, tie set and certificate must come out as if each instance were
estimated on its own.
"""

import copy
import importlib
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, count, islice

import numpy as np
import pytest

from mixwidth import Dimensions, Instance, PsiEstimate, psi, run_suites
from mixwidth.cli import _estimate_table, estimate_report, run_sweep, witness_report
from mixwidth.psi import psi_many
from mixwidth.verify import _rand_instance
from conftest import build
from helpers import primes_from
from psi_brute import brute_component

psi_module = importlib.import_module("mixwidth.psi")
# The size rule: families of at most LAST_FLAT balls take the block path for
# their triples, larger ones the per-instance grid.
LAST_FLAT = max(n for n in range(3, 200) if math.comb(n, 3) <= psi_module.FLAT_TRIPLES)


def _one_ball(rng):
    return _rand_instance(rng, max_balls=1)


def _pairs_infinite(rng):
    # q = sigma = 2 and every ball beyond (1/2, 1/2): only psi_0 is finite
    cells = rng.choice(8 * 8, size=int(rng.integers(1, 7)), replace=False)
    balls = [(Fraction(9 + int(c) // 8, 16), Fraction(9 + int(c) % 8, 16), 1.0) for c in cells]
    return build(8, 8, int(rng.integers(0, 33)), "1/2", "1/2", balls)


def _n_zero(rng):
    inst = _rand_instance(rng, max_balls=6)
    return Instance(Dimensions(inst.dims.m, inst.dims.k, 0), inst.target, inst.balls)


def _target_two(rng):
    # q = 2 or sigma = 2: psi_5 has no critical line
    inst = _rand_instance(rng, max_balls=6)
    uq, vs = inst.target.q.u, inst.target.sigma.u
    uq, vs = (Fraction(1, 2), vs) if rng.integers(0, 2) else (uq, Fraction(1, 2))
    return build(inst.dims.m, inst.dims.k, inst.dims.n, uq, vs,
                 [(b.p.u, b.theta.u, b.nu) for b in inst.balls])


def _equal_radii(rng):
    count = int(rng.integers(3, 10))
    cells = rng.choice(17 * 17, size=count, replace=False)
    balls = [(Fraction(int(c) // 17, 16), Fraction(int(c) % 17, 16), 1.0) for c in cells]
    m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
    uq, vs = Fraction(int(rng.integers(1, 9)), 16), Fraction(int(rng.integers(1, 9)), 16)
    return build(m, k, int(rng.integers(0, m * k // 2 + 1)), uq, vs, balls)


def _extreme_radii(rng):
    inst = _rand_instance(rng, max_balls=8)
    scale = float(rng.choice([300.0, -300.0]))
    return build(inst.dims.m, inst.dims.k, inst.dims.n, inst.target.q.u, inst.target.sigma.u,
                 [(b.p.u, b.theta.u, 10.0 ** (scale + float(rng.uniform(-2, 2))))
                  for b in inst.balls])


def _verify_size(rng):
    return _rand_instance(rng)


def _larger(rng):
    return _rand_instance(rng, max_balls=12)


PRIMES = primes_from(10**6, 24)


def _coprime(rng):
    # every ball coordinate and the target on its own prime denominator near 10^6
    count = 2 + 2 * int(rng.integers(1, 11))
    dens = [int(d) for d in rng.choice(PRIMES, size=count, replace=False)]
    uq, vs = (Fraction(int(rng.integers(1, d // 2 + 1)), d) for d in dens[:2])
    equal = bool(rng.integers(0, 2))
    balls = []
    for du, dv in zip(dens[2::2], dens[3::2]):
        u, v = (Fraction(int(rng.integers(0, d + 1)), d) for d in (du, dv))
        balls.append((u, v, 1.0 if equal else float(rng.uniform(0.2, 5.0))))
    m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
    return build(m, k, int(rng.integers(0, m * k // 2 + 1)), uq, vs, balls)


KINDS = (_one_ball, _pairs_infinite, _n_zero, _target_two, _equal_radii, _extreme_radii,
         _verify_size, _larger, _coprime)


def _target_and_goal(rng):
    uq, vs = (Fraction(int(rng.integers(8, 33)), 64) for _ in range(2))
    return uq, vs, (uq, vs) if rng.integers(0, 2) else (Fraction(1, 2), Fraction(1, 2))


def _others(rng, size):
    return [(Fraction(int(rng.integers(0, 65)), 64), Fraction(int(rng.integers(0, 65)), 64),
             float(np.exp(rng.uniform(-1, 1)))) for _ in range(size)]


def _goal_on_edge(rng):
    # pairs of balls mirrored through a goal, which lies on their segment, and
    # maybe a ball at the goal; their small radii make a triangle with the
    # goal on an edge or at a vertex the least, were it admitted
    uq, vs, goal = _target_and_goal(rng)
    balls = []
    for _ in range(int(rng.integers(1, 3))):
        du, dv = (Fraction(int(rng.integers(-8, 9)), 64) for _ in range(2))
        balls += [(goal[0] + du, goal[1] + dv, 0.01), (goal[0] - du, goal[1] - dv, 0.01)]
    if rng.integers(0, 2):
        balls.append((goal[0], goal[1], 0.01))
    balls += _others(rng, int(rng.integers(1, 4)))
    m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
    return build(m, k, int(rng.integers(0, m * k // 2 + 1)), uq, vs, balls)


def _collinear(rng):
    # four or more balls on one line, through a goal or beside it, and a few off it
    uq, vs, goal = _target_and_goal(rng)
    du, dv = (Fraction(int(rng.integers(-2, 3)), 64) for _ in range(2))
    if du == dv == 0:
        du = Fraction(1, 64)
    shift = Fraction(int(rng.integers(0, 3)), 64)
    steps = rng.choice(np.arange(-4, 5), size=int(rng.integers(4, 8)), replace=False)
    nu = float(rng.choice([0.5, 1.0, 2.0]))
    balls = [(goal[0] + int(t) * du - shift * dv, goal[1] + int(t) * dv + shift * du, nu)
             for t in steps]
    balls += _others(rng, int(rng.integers(1, 3)))
    m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
    return build(m, k, int(rng.integers(0, m * k // 2 + 1)), uq, vs, balls)


def _sized(rng, size):
    # `size` balls on the 1/64 grid, with random, equal or extreme radii
    cells = rng.choice(65 * 65, size=size, replace=False)
    radius = [lambda: float(np.exp(rng.uniform(-1.5, 1.5))), lambda: 1.0,
              lambda: 10.0 ** (float(rng.choice([300.0, -300.0])) + float(rng.uniform(-2, 2)))]
    style = radius[int(rng.integers(0, 3))]
    balls = [(Fraction(int(c) // 65, 64), Fraction(int(c) % 65, 64), style()) for c in cells]
    uq, vs, _ = _target_and_goal(rng)
    m, k = int(rng.integers(1, 65)), int(rng.integers(1, 65))
    return build(m, k, int(rng.integers(0, m * k // 2 + 1)), uq, vs, balls)


# One family per seed at 3 balls and at the size rule's boundary -1, 0 and +1.
SIZES = (3, LAST_FLAT - 1, LAST_FLAT, LAST_FLAT + 1)


def mixed_batch(seed, count):
    rng = np.random.default_rng(seed)
    batch = [KINDS[int(rng.integers(0, len(KINDS)))](rng) for _ in range(count)]
    batch += [_goal_on_edge(rng), _collinear(rng), _goal_on_edge(rng), _collinear(rng)]
    batch.append(_sized(rng, SIZES[seed % len(SIZES)]))
    # repeated instances: the same object, and an equal copy
    batch.insert(count // 2, batch[0])
    batch.append(Instance(batch[1].dims, batch[1].target, batch[1].balls))
    return batch


@pytest.mark.parametrize("seed", range(4))
def test_matches_psi_and_brute(seed):
    batch = mixed_batch(seed, 60)
    got = list(psi_many(batch))
    assert got == [psi(inst) for inst in batch]
    for inst, est in zip(batch, got):
        for j in range(8):
            assert (est.components[j], est.certificates.get(j)) == brute_component(inst, j), j


def test_every_kind_is_exercised():
    batch = mixed_batch(0, 60)
    estimates = list(psi_many(batch))
    assert any(len(inst.balls) == 1 for inst in batch)
    assert any(inst.dims.n == 0 for inst in batch)
    assert any(est.argmin == (0,) and all(v == float("inf") for v in est.components[1:])
               for est in estimates)
    assert any(Fraction(1, 2) in (inst.target.q.u, inst.target.sigma.u) for inst in batch)
    assert any(max(abs(np.log(b.nu)) for b in inst.balls) > 600 for inst in batch)
    assert any(inst.target.q.u.denominator in PRIMES for inst in batch)
    goals = [((inst.target.q.u, inst.target.sigma.u), (Fraction(1, 2), Fraction(1, 2)))
             for inst in batch]
    points = [[(b.p.u, b.theta.u) for b in inst.balls] for inst in batch]
    # a goal at a ball, a goal inside a segment, and three collinear balls
    assert any(g in pts for gs, pts in zip(goals, points) for g in gs)
    assert any(_orient(x, y, g) == 0 and x != y and (x[0] - g[0]) * (y[0] - g[0]) <= 0
               and (x[1] - g[1]) * (y[1] - g[1]) <= 0 and g not in (x, y)
               for gs, pts in zip(goals, points) for g in gs for x, y in combinations(pts, 2))
    assert any(_orient(x, y, z) == 0 for pts in points for x, y, z in combinations(pts[:12], 3))
    sizes = {len(inst.balls) for seed in range(len(SIZES)) for inst in mixed_batch(seed, 60)}
    assert set(SIZES) <= sizes
    assert psi_module._flat(LAST_FLAT) and not psi_module._flat(LAST_FLAT + 1)


def _orient(x, y, z):
    return (y[0] - x[0]) * (z[1] - x[1]) - (y[1] - x[1]) * (z[0] - x[0])


def _brute_estimate(inst):
    scans = [brute_component(inst, j) for j in range(8)]
    return psi_module._estimate([value for value, _ in scans],
                                {j: cert for j, (_, cert) in enumerate(scans) if cert is not None})


@pytest.mark.parametrize("m, k, count", [(64, 64, 16), (4096, 64, 12)])
def test_sweep_rows_on_equal_radii_families(m, k, count):
    # as the benchmark's sweeps: points on the 1/16 grid, one radius, 16 consecutive n
    rng = random.Random(f"{m}/{k}")
    uq, vs = Fraction(rng.randint(1, 8), 16), Fraction(rng.randint(1, 8), 16)
    cells = rng.sample(range(17 * 17), count)
    nu = rng.choice((0.5, 1.0, 2.0))
    balls = [(Fraction(c // 17, 16), Fraction(c % 17, 16), nu) for c in cells]
    inst = build(m, k, 0, uq, vs, balls)
    n0 = rng.randint(0, m * k // 2 - 15)
    shifted = [Instance(Dimensions(m, k, n), inst.target, inst.balls) for n in range(n0, n0 + 16)]
    got = list(psi_many(shifted))
    assert got == [psi(s) for s in shifted] == [_brute_estimate(s) for s in shifted]
    for row, est in zip(run_sweep(inst, n0, n0 + 15), got):
        assert (row["psi"], row["argmin_set"]) == (est.value, "|".join(map(str, est.argmin)))
        assert [row[f"psi_{j}"] for j in range(8)] == [
            "inf" if v == float("inf") else v for v in est.components]


@pytest.mark.parametrize("block", [1, 2, 7])
def test_small_blocks(monkeypatch, block):
    # blocks closing after every instance, or in the middle of a trial's pair
    batch = mixed_batch(10 + block, 40)
    want = [psi(inst) for inst in batch]
    monkeypatch.setattr(psi_module, "BLOCK", block)
    assert list(psi_many(batch)) == want


def test_flat_blocks_hold_under_twice_the_size_rule(monkeypatch):
    # `_flat_triples` screens a block's triples in one pass: `psi_many`
    # closes a block once they reach FLAT_TRIPLES, and a family adds at most
    # that many, so a pass holds fewer than twice as many
    flat, seen = psi_module._flat_triples, []

    def counted(balls, ends, *rest):
        seen.append(sum(math.comb(int(e) - 1 - int(a), 2) for a, e in zip(balls, ends[balls])))
        return flat(balls, ends, *rest)

    monkeypatch.setattr(psi_module, "_flat_triples", counted)
    rng = np.random.default_rng(23)
    for _ in psi_many(_rand_instance(rng, max_balls=LAST_FLAT) for _ in range(600)):
        pass
    assert psi_module.FLAT_TRIPLES < max(seen) <= 2 * psi_module.FLAT_TRIPLES, max(seen)


def test_empty_and_generator_input():
    assert list(psi_many([])) == []
    batch = mixed_batch(20, 12)
    assert list(psi_many(inst for inst in batch)) == [psi(inst) for inst in batch]


def test_yields_before_reading_everything():
    read = []

    def instances():
        rng = np.random.default_rng(21)
        while True:
            read.append(_rand_instance(rng))
            yield read[-1]

    estimates = psi_many(instances())
    assert next(estimates) == psi(read[0])
    assert len(read) <= psi_module.BLOCK


def test_memory_does_not_grow_with_instance_count():
    # Fresh instances valued one block at a time, traced over a window after
    # the first blocks: holding the window's instances or their estimates
    # would take several MB.  Single balls keep it quick.  Runs of families
    # at the size rule with no opposite-sign pair (q = sigma = 2, every ball
    # beyond (1/2, 1/2)) check that a block counts its triples: at 38
    # candidates and 4,060 triples each, a block counting candidates alone
    # would screen 13 of them at once.
    rng = np.random.default_rng(22)
    pool = [_rand_instance(rng, max_balls=1) for _ in range(64)]
    wide = []
    for size in (LAST_FLAT - 1, LAST_FLAT):
        cells = rng.choice(1024 * 1024, size=size, replace=False)
        wide.append(build(8, 8, 4, "1/2", "1/2", [
            (Fraction(1025 + int(c) // 1024, 2048), Fraction(1025 + int(c) % 1024, 2048),
             float(rng.uniform(0.5, 2.0))) for c in cells]))

    def instances():
        for i in count():
            inst = wide[i % 2] if i % 400 < 16 else pool[i % len(pool)]
            yield Instance(inst.dims, inst.target, inst.balls)

    estimates = psi_many(instances())
    for _ in islice(estimates, 350):
        pass
    tracemalloc.start()
    try:
        valued = sum(1 for _ in islice(estimates, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert valued == 1000
    assert peak < 2 * 2**20, peak


def _certificate_batch(seed):
    rng = np.random.default_rng(seed)
    batch = mixed_batch(seed, 16)
    return batch + [make(rng) for _ in range(6) for make in (_equal_radii, _coprime)]


# seeds at 0 mod len(SIZES): the sized family has 3 balls, which keeps the brute scans quick
@pytest.mark.parametrize("seed", [28, 32])
def test_certificates_on_read_match_brute(seed):
    # every certificate `psi_many` hands out is the brute scan's, and the one
    # `_certificate` builds from the row the pipeline kept for it
    batch = _certificate_batch(seed)
    for inst, est in zip(batch, psi_many(batch)):
        rows = {j: psi_module._certificate(j, row) for j, row in est.certificates._rows.items()}
        scans = [brute_component(inst, j) for j in range(8)]
        brute = {j: cert for j, (_, cert) in enumerate(scans) if cert is not None}
        assert dict(est.certificates) == brute == rows
        assert list(est.certificates) == sorted(brute)
        assert est == _brute_estimate(inst) and _brute_estimate(inst) == est


def test_certificates_built_only_when_read(monkeypatch):
    built = []

    def counting(j, found):
        built.append(j)
        return certificate(j, found)

    # the family with the most finite components, triples among them
    inst = max(_certificate_batch(32), key=lambda i: sum(v < math.inf for v in psi(i).components))
    assert psi(inst).components[6] < math.inf
    certificate = psi_module._certificate
    monkeypatch.setattr(psi_module, "_certificate", counting)
    run_suites(seed=0, trials=8)
    run_sweep(inst, 0, min(8, inst.dims.m * inst.dims.k // 2))
    witness_report(inst)
    assert built == []
    est = psi(inst)
    finite = [j for j, v in enumerate(est.components) if v < math.inf]
    report = estimate_report(inst, est)
    assert sorted(built) == finite == sorted(map(int, report["certificates"]))
    # reading the mapping again, in every way, builds nothing more
    _estimate_table(inst, est)
    estimate_report(inst, est)
    assert [est.certificates[j] for j in finite] == [est.certificates.get(j) for j in finite]
    assert dict(est.certificates.items()) == dict(est.certificates)
    assert sorted(built) == finite
    # the table alone builds exactly the certificates it prints
    built.clear()
    _estimate_table(inst, psi(inst))
    assert sorted(built) == finite


def test_estimates_pickle_and_deepcopy():
    batch = _certificate_batch(33)
    for i, est in enumerate(psi_many(batch)):
        if i % 2 and est.certificates:
            next(iter(est.certificates.values()))  # some certificates built, some not
        for other in (pickle.loads(pickle.dumps(est)), copy.deepcopy(est)):
            assert other == est
            assert dict(other.certificates) == dict(est.certificates)
            assert other == PsiEstimate(est.value, est.components, est.argmin, dict(est.certificates))
