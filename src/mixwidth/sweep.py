"""`psi` over many n at once: the n-independent work done once per run of rows.

A sweep changes only n.  `psi_sweep` values its rows in runs of SWEEP_ROWS,
and for each run (`_Sweep`) does once what does not read n: stage 1 of
`psi`'s pipeline with every opposite-sign pair (`psi`'s reach rests on a
floor of log Phi, which reads n), from `psi._pair_batches` in batches of
whole anchors of at least _SWEEP_ENTRIES rows, one triple screen for every
row of the run, and each candidate's exact record (`psi._geometry`), which
ends in its profile's regions.  Per row it values only the candidates that
can reach the row's window, by a bound from the monotonicity of each
log-value in n, and confirms them with the profile of their regions
(`phi._profile`) times the record's factors in turn, as `psi._scan_block`
does, so every estimate is `psi`'s for that n.  The candidates pass in
parts joined up to `psi.BLOCK` rows (`psi._merged`), each over all the
run's rows, and each slot keeps its best row across parts by `psi`'s own
rule (`psi._keep`).  No candidate outlives its run.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from .phi import Dimensions, _profile, log_phi_array, profile_params
from .psi import (
    _LOG_SAFE,
    Instance,
    PsiEstimate,
    _block_layout,
    _found_estimate,
    _geometry,
    _goal,
    _keep,
    _line_arrays,
    _lines,
    _log_value,
    _log_window,
    _merged,
    _pair_batches,
    _picked,
    _rank,
    _singles,
    _triple_batches,
)

# `psi_sweep` values SWEEP_ROWS rows at a time; a pass of its row bound holds
# about _SWEEP_ENTRIES (candidate, row) pairs, or one row's candidates, and a
# stage-1 pair batch at least _SWEEP_ENTRIES rows, of whole anchors.
SWEEP_ROWS = 1 << 12
_SWEEP_ENTRIES = 1 << 14
# The row bound's margin per unit of 1 + |base| + |log Phi|: see `_Sweep`.
_ROW_MARGIN = 1e-12


def psi_sweep(inst: Instance, ns: Sequence[int]) -> Iterator[PsiEstimate]:
    """`psi` of `inst` with n replaced by each n of `ns`, in order; ValueError if `ns` decreases anywhere.

    Every value, tie set and certificate is the one `psi` gives for that n.
    The rows are valued in runs of SWEEP_ROWS (`_Sweep`), and each run finds
    once what does not read n: stage 1's singles, pairs and triple screen,
    and the exact record of each candidate stage 3 meets: its geometry,
    radius powers and the profile's regions at its crossing point or goal.
    On each row only the candidates that can reach its window pass stages 2
    and 3; the row bound that decides which holds only where n does not
    decrease.
    """
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise ValueError("the n of a sweep must not decrease")
    for start in range(0, len(ns), SWEEP_ROWS):
        run = ns[start:start + SWEEP_ROWS]
        best = _Sweep(inst, run).best
        for r in range(len(run)):
            yield _found_estimate({j: best[8 * r + j] for j in range(8) if 8 * r + j in best})


class _Sweep:
    """One family's candidates valued at a run of rows `ns`: the winning rows of slot 8 r + j in `best`.

    The candidates come in parts (`_parts`): stage 1's singles and pairs,
    whose profile is taken at their crossing point, then the triples the
    screen keeps, whose profile is that of the component's goal.  A
    candidate's float log-value at n is base + log Phi, base being its sum
    of weight times log radius.

    The row bound.  In exact arithmetic a candidate's log-value is a minimum
    of terms whose logarithms are affine in log n with slopes 0, -1/2,
    -omega_p/2 or -omega_t/2 (`phi._branches`), so it is nonincreasing (and
    concave) in n; so is the log profile at a goal.  A float log-value errs
    from it by the rounding of a few powers and products, under 30 ulp of
    the profile, plus an ulp of each logarithm and sum: under
    1e-14 (1 + |base| + |log Phi|).  The bound allows _ROW_MARGIN times that
    sum, a hundred times more.  So over the rows lo < n < hi a candidate's
    float log-value is at least its value at hi less the margin, its
    |log Phi| at most the larger at lo and hi plus the margin, and a slot's
    least non-risky log-value at most any never-risky candidate's value at
    lo plus the margin.  A candidate above that least value at lo plus the
    window at hi, at hi and by more than the margins, and never risky, is
    neither picked nor least on any of those rows.  `_split` drops such
    candidates from a run, values the survivors at its middle row, and
    splits the run there.  Row n = 0, where G is infinite, and the first and
    last of the other rows are valued with every candidate of a part.

    Stage 2 keeps each row's least non-risky log-values in one array
    (`vmin`) across parts, as `psi._scan_block` does across batches: a
    minimum only falls, so each pick holds at least what the final window
    needs, and stage 3 keeps a slot's best row across parts (`psi._keep`),
    so a row's estimate is `psi`'s.
    """

    def __init__(self, inst: Instance, ns: Sequence[int]):
        self.inst = inst
        uf, vf, la = inst._ball_arrays
        self.la = la
        lmax = float(np.abs(la).max())
        lines = _lines(inst)
        # Each component's `psi._geometry` context.
        self.contexts = {**{j: lines[j][0] for j in lines}, 6: _goal(inst, 6), 7: _goal(inst, 7)}
        # The rows' parameters, windows and goal profiles, which `_lphi`,
        # `_split` and `_settle` read by row index.
        dims = [Dimensions(inst.dims.m, inst.dims.k, n) for n in ns]
        self.params = [profile_params(inst.target, d) for d in dims]
        self.table = np.array(self.params)
        self.windows = np.array([_log_window(inst.target, d, lmax) for d in dims])
        count = len(ns)
        goal = np.array([self.params[0][:2]])
        self.lgoal = log_phi_array(np.repeat((goal[0, 0], 0.5), count), np.repeat((goal[0, 1], 0.5), count),
                                   np.tile(self.table.T, 2)).reshape(2, count)
        sizes, _, owner, ends = _block_layout([inst])
        # Every opposite-sign pair: the row bound screens each row.
        self.stage1 = (*_line_arrays([lines]), owner, uf, vf, la, goal[:, 0])
        # One triple screen serves every row: log Phi at a goal shifts each of
        # its triples alike, so the screen runs with a shift as large as any
        # row's |log Phi(goal)| (monotone in n, so largest at an end) and
        # the widest row's window, the last, both with the bound's margin.  A
        # goal whose triples may then be risky keeps every triple that may
        # contain it, as the per-row screen does.
        shift = np.nan_to_num(np.abs(self.lgoal[:, [0, -1]]).max(axis=1), nan=math.inf)
        shift += _ROW_MARGIN * (1.0 + shift)
        window = self.windows[-1] + _ROW_MARGIN * (1.0 + shift.max() + lmax)
        self.screen = sizes, owner, ends, uf, vf, la, goal, shift[None], [window]
        # Stage 3's profile regions, numbered.
        self.regions: list[tuple] = []
        self.region_ids: dict[tuple, int] = {}
        self.vmin = np.full(8 * count, math.inf)
        self.best: dict[int, tuple] = {}
        first = min(1 if ns[0] == 0 else 0, count - 1)
        for part in self._parts():
            self._value(part, first)

    def _parts(self) -> Iterator[_Part]:
        """The candidates, in parts of one kind joined up to `psi.BLOCK` (a pair batch may hold more:
        fewer than _SWEEP_ENTRIES rows plus one anchor's).

        Held two parts at a time at most, so a run's memory does not grow
        with their number.
        """
        batches = _merged(chain([_singles(*self.stage1[2:5])], _pair_batches(*self.stage1, _SWEEP_ENTRIES)))
        pairs = (_Part(label, rows, weights, unsure, self.la, cu, cv)
                 for label, rows, weights, cu, cv, unsure in batches)
        triples = (_Part(label, rows, weights, unsure, self.la)
                   for label, rows, weights, unsure in _merged(_triple_batches(*self.screen)))
        return chain(pairs, triples)

    def _value(self, part: _Part, first: int) -> None:
        """Stages 2 and 3 of every row for the candidates of `part`; `first` is the first row with n > 0,
        or the only row."""
        count = len(self.params)
        every = np.arange(len(part.label))
        if count * len(every) <= _SWEEP_ENTRIES:  # few enough to value every row with every candidate
            ends = list(range(count))
        else:
            ends = sorted({0, first, count - 1})
        lphi = {}
        step = max(1, _SWEEP_ENTRIES // len(every))
        for i in range(0, len(ends), step):
            at, cand = np.repeat(ends[i:i + step], len(every)), np.tile(every, len(ends[i:i + step]))
            values = self._lphi(part, cand, at)
            self._settle(part, at, cand, values)
            lphi.update(zip(ends[i:i + step], values.reshape(-1, len(every))))
        stack = []
        if len(ends) < count:
            stack.append((np.full(len(every), first), np.full(len(every), count - 1), every,
                          lphi[first], lphi[count - 1]))
        while stack:
            self._split(part, stack)

    def _lphi(self, part: _Part, cand: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Float log Phi of candidates `cand` at rows `row`: at a pair's crossing, or at a triple's goal."""
        if part.cu is None:
            return self.lgoal[part.label[cand] - 6, row]
        # Only G, R and C change from row to row.
        return log_phi_array(part.cu[cand], part.cv[cand], (*self.params[0][:4], *self.table[row, 4:].T))

    def _split(self, part: _Part, stack: list[tuple]) -> None:
        """Take runs of rows off `stack`, drop the candidates the row bound excludes, value the rest
        at each run's middle row, and push the two halves that still have rows inside.

        A stack entry lists (lo, hi, candidate, log Phi at lo, log Phi at hi)
        for the candidates of one or more runs lo < hi.
        """
        lo, hi, cand, plo, phi = stack.pop()
        base = part.base[cand]
        big = np.maximum(np.abs(plo), np.abs(phi))
        margin = _ROW_MARGIN * (1.0 + np.abs(base) + big)
        sure = big + part.wabs[cand] + margin <= _LOG_SAFE
        sure &= ~part.unsure[cand]
        run = lo * 8 + part.label[cand]  # the run's lo identifies it within a stack entry
        top = np.full(8 * len(self.params), math.inf)
        np.minimum.at(top, run[sure], (base + plo + margin)[sure])
        keep = base + phi - margin <= top[run] + self.windows[hi]
        keep |= ~sure
        lo, hi, cand, plo, phi = (x[keep] for x in (lo, hi, cand, plo, phi))
        mid = (lo + hi) // 2
        pmid = self._lphi(part, cand, mid)
        self._settle(part, mid, cand, pmid)
        halves = []
        for half in (lo, mid, cand, plo, pmid), (mid, hi, cand, pmid, phi):
            inner = half[1] - half[0] >= 2
            halves.append(tuple(x[inner] for x in half))
        if sum(len(half[2]) for half in halves) <= _SWEEP_ENTRIES:
            halves = [tuple(map(np.concatenate, zip(*halves)))]
        stack.extend(half for half in halves if len(half[2]))

    def _settle(self, part: _Part, row: np.ndarray, cand: np.ndarray, lphi: np.ndarray) -> None:
        """Stages 2 and 3 of rows `row`, each given with every candidate of `part` that can reach its window.

        Stage 2 is `psi._picked`, against the run's minima `vmin`.  Stage 3
        values every picked candidate at once: its profile, found once per
        row and set of regions, times its cached factors in turn, so each
        value is `psi._scan_block`'s bit for bit.  The rows of each slot's
        least value go to `psi._keep`, with the rest of their record.
        """
        slot = row * 8 + part.label[cand]
        pick = _picked(slot, part.base[cand] + lphi, lphi, part.wabs[cand], part.unsure[cand], self.windows[row],
                       self.vmin)
        row, cand = row[pick], cand[pick]
        for c in dict.fromkeys(cand[part.group[cand] == -2].tolist()):
            self._geometry(part, c)
        group = part.group[cand]
        row, cand, group = row[group >= 0], cand[group >= 0], group[group >= 0]
        # One profile per (regions, row): number the distinct keys through a
        # stable argsort (np.unique would load a hash table's code and memory).
        keys = group * len(self.params) + row
        order = np.argsort(keys, kind="stable")
        new = np.ones(len(keys), bool)
        np.not_equal(keys[order[1:]], keys[order[:-1]], out=new[1:])
        inv = np.empty(len(keys), int)
        inv[order] = np.cumsum(new) - 1
        firsts = order[new]
        profiles = [_profile(self.regions[g], self.params[r])
                    for g, r in zip(group[firsts].tolist(), row[firsts].tolist())]
        value = np.array([profile.value for profile in profiles])[inv]
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as in float arithmetic
            for factor in part.factors[cand].T:
                value *= factor
        # The least value of each slot, then its least index tuple (`psi._rank`),
        # goes to `psi._keep`.
        slot = row * 8 + part.label[cand]
        least = np.full(8 * len(self.params), math.inf)
        np.fmin.at(least, slot, value)
        win = value == least[slot]
        rank = part.rank[cand]
        first = np.full(len(least), np.iinfo(rank.dtype).max)
        np.minimum.at(first, slot[win], rank[win])
        win &= rank == first[slot]
        for s, v, c, e in zip(slot[win].tolist(), value[win].tolist(), cand[win].tolist(), inv[win].tolist()):
            if c not in part.rest:
                part.rest[c] = self._geometry(part, c)[1:5]
            _keep(self.best, s, (v, *part.rest[c], profiles[e]))

    def _geometry(self, part: _Part, c: int) -> Optional[tuple]:
        """Candidate c's `psi._geometry` record, with its region id and factors set in `part` (see `_Part`).

        Equal regions give equal profiles, so a regions tuple is its own id's key.
        """
        j = int(part.label[c])
        found = _geometry(self.inst, j, tuple(part.balls[c].tolist()), self.contexts.get(j))
        if found is None:
            part.group[c] = -1
            return None
        part.factors[c], regions = found[0], found[5]
        part.group[c] = group = self.region_ids.setdefault(regions, len(self.regions))
        if group == len(self.regions):
            self.regions.append(regions)
        return found


class _Part:
    """Candidates of one kind, singles and pairs or triples, with their n-independent data.

    Candidate i is ball indices `balls[i]` (a single is the pair (a, a) with
    weight 0 on its second ball) with float `weights[i]` in slot `label[i]`;
    `cu`, `cv` are a pair's float crossing point, and None for triples.
    `base` and `wabs` are the sums of weight times log radius and times its
    absolute value, and `rank` its place in `psi._keep`'s order.  Stage 3's
    data is found when a candidate is first picked: the id of its profile's
    regions in `group` (-1 if it does not qualify, -2 while unknown), and in
    `factors` the factors of its `psi._geometry` record; `rest` holds the
    certificate fields (indices, weights, p, theta) of the records of the
    candidates that win a slot, found again for them only.
    """

    def __init__(self, label: np.ndarray, balls: np.ndarray, weights: np.ndarray, unsure: np.ndarray,
                 la: np.ndarray, cu: Optional[np.ndarray] = None, cv: Optional[np.ndarray] = None):
        self.label, self.balls, self.unsure, self.cu, self.cv = label, balls, unsure, cu, cv
        lnu = la[balls]
        self.base = _log_value(zip(weights.T, lnu.T), 0.0)
        self.wabs = (weights * np.abs(lnu)).sum(axis=1)
        self.rank = _rank(balls, len(la))
        self.group = np.full(len(label), -2)
        self.factors = np.ones((len(label), 1 if cu is not None else 3))
        self.rest: dict[int, tuple] = {}
