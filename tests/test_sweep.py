"""Sweeps against the per-row reference, and the facts `psi_sweep`'s row bound rests on.

`run_sweep` shares what no row changes (`psi_sweep`, `WitnessGrid`); its
rows, and the CSV, JSON and table renderings of them, must equal those of
`tests/sweep_brute.py`, which estimates and bounds every row on its own.
The row bound drops a candidate from a run of rows by the fact that a
log-value is nonincreasing in n, up to rounding under `_ROW_MARGIN`; the
property tests check that fact with `psi` alone, and the margin and the
selection against full per-row valuations.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mixwidth import best_witness_lower_bound, psi_many, psi_sweep
from mixwidth.cli import CSV_COLUMNS, _sweep_table, instance_to_dict, main, run_sweep
from mixwidth.phi import Dimensions, log_phi_array, profile_params
from mixwidth.verify import _rand_instance
from mixwidth.witness import _width
from conftest import build
from sweep_brute import reference_estimates, reference_rows, shifted

psi_module = importlib.import_module("mixwidth.psi")
sweep_module = importlib.import_module("mixwidth.sweep")


def _family(seed, count, den, m, k, uq, vs, radius, n=1):
    """`count` distinct balls on the 1/den grid with radii radius(rng)."""
    rng = np.random.default_rng(seed)
    cells = rng.choice((den + 1) ** 2, size=count, replace=False)
    balls = [(Fraction(int(c) // (den + 1), den), Fraction(int(c) % (den + 1), den), radius(rng))
             for c in cells]
    return build(m, k, n, uq, vs, balls)


def _equal(rng):
    return 0.5


def _repeated(rng):
    return float(rng.choice((0.5, 1.0, 2.0)))


def _random(rng):
    return float(np.exp(rng.uniform(-1.5, 1.5)))


def _extreme(rng):
    return 10.0 ** (float(rng.choice((300.0, -300.0))) + float(rng.uniform(-2, 2)))


def _overflowing(rng):
    return 10.0 ** (float(rng.choice((303.5, -303.5))) + float(rng.uniform(-0.05, 0.05)))


# name: (family, sweep ranges)
CASES = {
    # the benchmark's sweeps: 16 and 12 balls on the 1/16 grid at 64x64 and 4096x64
    "bench16-equal": (lambda: _family(1, 16, 16, 64, 64, Fraction(5, 16), Fraction(7, 16), _equal),
                      [(1040, 1055), (0, 24)]),
    "bench16-repeated": (lambda: _family(2, 16, 16, 64, 64, Fraction(3, 16), Fraction(1, 8), _repeated),
                         [(226, 241), (2032, 2048)]),
    "bench12-equal": (lambda: _family(3, 12, 16, 4096, 64, Fraction(1, 4), Fraction(3, 8), _equal),
                      [(70000, 70015)]),
    "bench12-repeated": (lambda: _family(4, 12, 16, 4096, 64, Fraction(7, 16), Fraction(1, 16), _repeated),
                         [(0, 15), (131057, 131072)]),
    # random radii on the 1/1024 grid: flat triples at N = 5, grid triples at 31 and 48
    "random5": (lambda: _family(5, 5, 1024, 64, 4096, Fraction(1, 3), Fraction(1, 4), _random),
                [(0, 40)]),
    "random31": (lambda: _family(6, 31, 1024, 64, 4096, Fraction(1, 3), Fraction(1, 4), _random),
                 [(990, 1010)]),
    "random48": (lambda: _family(7, 48, 1024, 64, 64, Fraction(1, 3), Fraction(1, 4), _random),
                 [(0, 20), (1900, 1930)]),
    "q2": (lambda: _family(8, 14, 16, 64, 64, Fraction(1, 2), Fraction(3, 8), _repeated),
           [(0, 30)]),
    "sigma2": (lambda: _family(9, 14, 64, 64, 64, Fraction(5, 16), Fraction(1, 2), _random),
               [(100, 130)]),
    # the whole range 0..m*k/2
    "full8": (lambda: _family(10, 10, 16, 8, 8, Fraction(3, 8), Fraction(1, 4), _repeated),
              [(0, 32)]),
    # across the witness crossover and Phi's branch breaks (checked below)
    "crossing": (lambda: _family(11, 16, 16, 64, 64, Fraction(1, 4), Fraction(3, 16), _repeated),
                 [(1, 240)]),
    # radii near 1e+-300, as in the CI's extreme40.json
    "extreme40": (lambda: _family(12, 40, 1024, 4096, 64, Fraction(1, 3), Fraction(1, 4), _extreme),
                  [(5000, 5003)]),
    # radii near 1e+-303.5: goal 7's triples may be risky from a row inside the
    # range on, so the shared screen falls back, on the grid and on the flat path
    "overflow40": (lambda: _family(14, 40, 1024, 64, 64, Fraction(1, 3), Fraction(1, 4), _overflowing),
                   [(1045, 1052)]),
    "overflow12": (lambda: _family(15, 12, 1024, 64, 64, Fraction(1, 3), Fraction(1, 4), _overflowing),
                   [(1051, 1058)]),
    # three balls whose one triangle contains neither goal: the sweep has no triple
    "no-triangle3": (lambda: build(4, 4, 2, Fraction(1, 4), Fraction(1, 4),
                                   [(1, 1, 1.0), (Fraction(1, 2), 1, 2.0), (1, Fraction(1, 2), 0.5)]),
                     [(0, 8)]),
}


def _estimate_key(est):
    return est.value, est.components, est.argmin, dict(est.certificates)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_equals_the_per_row_reference(name):
    make, ranges = CASES[name]
    inst = make()
    for n_from, n_to in ranges:
        ns = range(n_from, n_to + 1)
        want = reference_estimates(inst, ns)
        got = list(psi_sweep(inst, ns))
        assert [_estimate_key(e) for e in got] == [_estimate_key(e) for e in want], (name, n_from)
        assert run_sweep(inst, n_from, n_to) == reference_rows(inst, n_from, n_to), (name, n_from)


@pytest.mark.parametrize("name", sorted(CASES))
def test_runs_of_three_rows(monkeypatch, name):
    # the first rows of each range three at a time: each run of rows finds
    # its candidates and screens its triples on its own
    monkeypatch.setattr(sweep_module, "SWEEP_ROWS", 3)
    make, ranges = CASES[name]
    inst = make()
    for n_from, n_to in ranges:
        ns = range(n_from, min(n_to, n_from + 39) + 1)
        assert [_estimate_key(e) for e in psi_sweep(inst, ns)] == [
            _estimate_key(e) for e in reference_estimates(inst, ns)], (name, n_from)


def _outcome(sweep, inst, n_from, n_to):
    """The rows of `sweep`, or the kind of error it raises."""
    try:
        return sweep(inst, n_from, n_to)
    except ValueError as error:
        return type(error)


def test_verify_families_equal_the_per_row_reference():
    # families of 1-8 balls from the verify generator, over random ranges;
    # many have no triangle about either goal
    rng = np.random.default_rng(19)
    for _ in range(200):
        inst = _rand_instance(rng, max_balls=8)
        half = inst.dims.m * inst.dims.k // 2
        n_from = int(rng.integers(0, half + 1))
        n_to = int(rng.integers(n_from, min(half, n_from + 15) + 1))
        assert _outcome(run_sweep, inst, n_from, n_to) == _outcome(reference_rows, inst, n_from, n_to), inst


def test_no_part_is_empty(monkeypatch):
    # at q = 2 psi_5 has no line and its batch is empty; it follows psi_4's
    # nine pairs, a part of their own when a part holds eight
    monkeypatch.setattr(psi_module, "BLOCK", 8)
    inst = build(8, 8, 4, Fraction(1, 2), Fraction(1, 3), [
        (Fraction(u, 8), Fraction(v, 4), nu)
        for u, v, nu in ((0, 1, 1.0), (1, 1, 2.0), (3, 1, 0.5), (0, 3, 1.5), (2, 3, 1.0), (3, 3, 4.0))])
    assert run_sweep(inst, 0, 32) == reference_rows(inst, 0, 32)


def test_crossing_case_crosses():
    # the "crossing" range passes the crossover of the witness's best cell, and
    # some component of psi changes slope in log n: a break of its envelope
    make, [(n_from, n_to)] = CASES["crossing"]
    inst = make()
    uq, vs = inst._params[:2]
    sides = set()
    for n in range(n_from, n_to + 1):
        _, r, l = best_witness_lower_bound(shifted(inst, n))
        sides.add(n <= _width(inst.dims.m, inst.dims.k, r, l, n, uq, vs, math.sqrt)[0])
    assert sides == {True, False}
    ns = range(n_from, n_to + 1)
    values = np.array([est.components for est in reference_estimates(inst, ns)]).T
    slopes = [np.diff(np.log(v)) / np.diff(np.log(ns)) for v in values if np.isfinite(v).all()]
    assert max(np.ptp(s) for s in slopes) > 0.01


@pytest.mark.parametrize("name", ["overflow40", "overflow12"])
def test_shared_screen_falls_back_where_a_triple_may_be_risky(name):
    # goal 7's triples are safe on the range's first row and may be risky on
    # its last: the sweep keeps every triple that may contain goal 7, as the
    # per-row screen does from that row on, and the grid still screens goal 6's
    # (the flat path screens none)
    make, [(n_from, n_to)] = CASES[name]
    inst = make()
    lmax = float(np.abs(inst._ball_arrays[2]).max())
    safe = []
    for n in (n_from, n_to):
        params = profile_params(inst.target, Dimensions(inst.dims.m, inst.dims.k, n))
        lgoal = log_phi_array(np.array([0.5]), np.array([0.5]), params)[0]
        safe.append(abs(lgoal) + lmax * (1.0 + 1e-9) <= psi_module._LOG_SAFE)
    assert safe == [True, False]
    kept = np.bincount(_triple_labels(inst, n_from, n_to), minlength=8)
    contained = _contained(inst)
    assert kept[7] == contained[7] > 0
    assert (kept[6] == contained[6]) == psi_module._flat(len(inst.balls))


def test_shared_screen_drops_triples():
    inst = CASES["random48"][0]()
    assert 0 < len(_triple_labels(inst, 0, 1930)) < 0.2 * _contained(inst).sum()


def _triple_labels(inst, n_from, n_to):
    """The labels of the triples the sweep's shared screen keeps."""
    parts = sweep_module._Sweep(inst, range(n_from, n_to + 1))._parts()
    return np.concatenate([part.label for part in parts if part.cu is None] + [np.empty(0, int)])


def _contained(inst):
    """How many triples may contain each goal (by label), by the screen without a window."""
    sizes, _, owner, ends = psi_module._block_layout([inst])
    uf, vf, la = inst._ball_arrays
    goal = np.array([inst._params[:2]])
    batches = psi_module._triple_batches(sizes, owner, ends, uf, vf, la, goal, np.zeros((1, 2)), [math.inf])
    return sum(np.bincount(batch[0], minlength=8) for batch in batches)


def _cli(path, fmt, n_from, n_to):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([path, "--mode", "sweep", "--format", fmt, "--n-from", str(n_from), "--n-to", str(n_to)])
    assert code == 0
    return out.getvalue()


def _rows_to_csv(rows):
    """The CSV of `rows` as one in-memory string: the reference for the CLI, which writes a line at a time."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: row[key] for key in CSV_COLUMNS})
    return buf.getvalue()


@pytest.mark.parametrize("name", ["bench16-equal", "random31", "q2"])
def test_renderings_equal_the_reference_rendered(tmp_path, name):
    make, [(n_from, n_to), *_] = CASES[name]
    inst = make()
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    rows = reference_rows(inst, n_from, n_to)
    assert _cli(str(path), "csv", n_from, n_to) == _rows_to_csv(rows)
    assert _cli(str(path), "json", n_from, n_to) == json.dumps(
        {"schema": "mixwidth-report/1", "mode": "sweep", "rows": rows}, indent=2) + "\n"
    assert _cli(str(path), "table", n_from, n_to) == _sweep_table(rows) + "\n"


def test_chunks_of_rows(monkeypatch):
    # rows valued a few at a time, and a bisection that splits its runs apart
    inst = CASES["crossing"][0]()
    ns = range(0, 120)
    want = [_estimate_key(e) for e in reference_estimates(inst, ns)]
    monkeypatch.setattr(sweep_module, "SWEEP_ROWS", 7)
    monkeypatch.setattr(sweep_module, "_SWEEP_ENTRIES", 16)
    assert [_estimate_key(e) for e in psi_sweep(inst, ns)] == want


@pytest.mark.parametrize("entries", [None, 1])
def test_sweep_of_one_row_and_of_n_zero(monkeypatch, entries):
    # with one entry per pass the sweep values only a run's ends with every
    # candidate, as it does when a family has more candidates than a pass holds
    if entries is not None:
        monkeypatch.setattr(sweep_module, "_SWEEP_ENTRIES", entries)
    inst = CASES["random5"][0]()
    for ns in (range(0, 1), range(7, 8), range(0, 2), range(0, 3), range(0, 4), range(7, 11)):
        assert [_estimate_key(e) for e in psi_sweep(inst, ns)] == [
            _estimate_key(e) for e in reference_estimates(inst, ns)], ns


def _unit(rng):
    return 1.0


def test_parts_keep_the_first_of_tied_rows(monkeypatch):
    # radii 1: every triple of a goal, and every pair of a crossing profile,
    # has the same value, so each slot's row is the least index tuple among
    # many ties, which the grid meets in another order (by middle index) and
    # the sweep splits over several parts; longer than a run of rows, the
    # sweep finds its parts again in each run; its pair batches hold at
    # least its pair budget of rows, here BLOCK's
    inst = _family(16, 36, 64, 64, 64, Fraction(5, 16), Fraction(7, 16), _unit)
    assert not psi_module._flat(len(inst.balls))
    monkeypatch.setattr(psi_module, "BLOCK", 200)
    monkeypatch.setattr(sweep_module, "_SWEEP_ENTRIES", 200)
    monkeypatch.setattr(sweep_module, "SWEEP_ROWS", 4)
    ns = range(100, 107)
    assert len(list(sweep_module._Sweep(inst, ns)._parts())) > 4
    assert [_estimate_key(e) for e in psi_sweep(inst, ns)] == [
        _estimate_key(e) for e in reference_estimates(inst, ns)]


def test_parts_bound_the_memory_of_many_triples():
    # equal radii: the shared screen keeps every contained triple, here
    # 19,301 of 64 balls; a sweep holds a part of them at a time, so its peak
    # stays that of a few parts (1.4 MB; all in one part, 6.0 MB)
    inst = _family(17, 64, 64, 64, 64, Fraction(5, 16), Fraction(7, 16), _equal)
    sweep_module._Sweep(inst, range(1000, 1002))  # the imports and first calls, outside the count
    tracemalloc.start()
    try:
        estimates = list(psi_sweep(inst, range(1000, 1002)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_triple_labels(inst, 1000, 1001)) > 8 * 1024
    assert peak < 2 * 2**20, peak
    assert [_estimate_key(e) for e in estimates[-1:]] == [
        _estimate_key(e) for e in reference_estimates(inst, range(1001, 1002))]


def test_decreasing_ns_raise_and_repeats_match():
    # the row bound holds only where n does not decrease: a shuffled range
    # raises before any row, and the same n sorted, with repeats, are `psi`'s
    inst = CASES["random48"][0]()
    ns = np.random.default_rng(22).permutation(np.arange(0, 2049, 7)).tolist()
    with pytest.raises(ValueError, match="must not decrease"):
        next(psi_sweep(inst, ns))
    ns = sorted(ns + ns[:60])
    assert [_estimate_key(e) for e in psi_sweep(inst, ns)] == [
        _estimate_key(e) for e in reference_estimates(inst, ns)]


def test_overflowing_values_win_no_slot():
    # the only single's value overflows to inf on every row: it wins no slot,
    # so psi_0 is inf with no certificate, as in `psi`
    inst = build(64, 64, 4, Fraction(1, 3), Fraction(1, 3), [(Fraction(0), Fraction(0), 1e308)])
    want = [_estimate_key(e) for e in reference_estimates(inst, range(0, 30))]
    assert all(math.isinf(value) and certs == {} for value, _, _, certs in want)
    assert [_estimate_key(e) for e in psi_sweep(inst, range(0, 30))] == want


# ---------------------------------------------------------------------------
# the row bound
# ---------------------------------------------------------------------------


def _log_spaced(inst, count=40):
    half = inst.dims.m * inst.dims.k // 2
    return sorted({int(round(x)) for x in np.geomspace(1, half, count)}) if half >= 1 else []


def _property_families():
    rng = np.random.default_rng(2024)
    verify = [_rand_instance(rng) for _ in range(80)]
    sizes = [5, 8, 12, 16, 20, 25, 30, 35, 40]
    families = [_family(100 + i, n, 1024, int(rng.choice((8, 64, 4096))), int(rng.choice((8, 64))),
                        Fraction(int(rng.integers(1, 513)), 1024), Fraction(int(rng.integers(1, 513)), 1024),
                        (_random, _repeated, _equal)[i % 3]) for i, n in enumerate(sizes)]
    return verify + families


def test_log_psi_is_nonincreasing_and_concave_in_log_n():
    # psi per row, independently of the sweep: each component's log is a lower
    # envelope of lines in log n, so its slopes are <= 0 and never rise
    worst = -math.inf
    for inst in _property_families():
        ns = _log_spaced(inst)
        if len(ns) < 3:
            continue
        t = np.log(ns)
        values = np.array([est.components for est in psi_many(shifted(inst, n) for n in ns)]).T
        for j, column in enumerate(values):
            if not np.isfinite(column).all():
                assert np.isinf(column).all(), (inst, j)  # a component is empty on every row or none
                continue
            slopes = np.diff(np.log(column)) / np.diff(t)
            assert slopes.max() <= 1e-12, (inst, j)
            worst = max(worst, np.diff(slopes).max(initial=-math.inf))
            assert np.diff(slopes).max(initial=-math.inf) <= 1e-12, (inst, j)
    assert worst > -math.inf


@pytest.mark.parametrize("name", ["bench16-repeated", "random31", "random48", "overflow12", "q2"])
def test_float_log_values_rise_within_the_margin(name):
    # the rounding budget written in `_Sweep`: between any two rows a float
    # log-value rises by under 2e-14 (1 + |base| + |log Phi|), a fiftieth of
    # the margin the bound allows
    inst = CASES[name][0]()
    ns = _log_spaced(inst)
    sweep = sweep_module._Sweep(inst, ns)
    for part in sweep._parts():
        every = np.arange(len(part.base))
        lphi = np.array([sweep._lphi(part, every, np.full(len(every), r)) for r in range(len(ns))])
        logv = part.base + lphi
        for i in range(len(ns)):
            big = np.maximum(np.abs(lphi[i]), np.abs(lphi[i:]))
            sure = np.isfinite(big) & (big + part.wabs <= psi_module._LOG_SAFE)
            rise = (logv[i:] - logv[i]) / (1.0 + np.abs(part.base) + big)
            assert rise[sure].max(initial=0.0) <= sweep_module._ROW_MARGIN / 50, (name, ns[i])


@pytest.mark.parametrize("name", ["bench16-equal", "bench16-repeated", "random48", "crossing", "overflow40"])
def test_rows_see_every_candidate_that_can_reach_their_window(monkeypatch, name):
    # each row's candidates hold every one that stage 2 picks, or finds least,
    # when the row is valued with every candidate
    make, ranges = CASES[name]
    inst = make()
    settle = sweep_module._Sweep._settle
    checked = []

    def checking(self, part, row, cand, lphi):
        every = np.arange(len(part.base))
        for r in np.unique(row).tolist():
            full = self._lphi(part, every, np.full(len(every), r))
            logv = part.base + full
            risky = (np.abs(full) + part.wabs > psi_module._LOG_SAFE) | part.unsure
            need = risky.copy()
            for j in range(8):
                slot = (part.label == j) & ~risky
                if slot.any():
                    least = logv[slot].min()
                    # a hair inside the window: a last-bit difference between
                    # two valuations of one point must not fail the check
                    need |= slot & (logv <= least + self.windows[r] - 1e-12 * (1 + abs(least)))
            assert set(np.flatnonzero(need).tolist()) <= set(cand[row == r].tolist()), (name, r)
            checked.append(r)
        settle(self, part, row, cand, lphi)

    monkeypatch.setattr(sweep_module._Sweep, "_settle", checking)
    monkeypatch.setattr(sweep_module, "_SWEEP_ENTRIES", 64)  # force the bisection on short ranges
    for n_from, n_to in ranges:
        list(psi_sweep(inst, range(n_from, n_to + 1)))
    assert checked
