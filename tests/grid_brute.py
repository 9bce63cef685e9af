"""The per-middle-index triple screen: the reference for `psi._grid_triples`.

It screens every triple a < b < c of one family, per middle index b, for
both goals at once, with the pipeline's own orientation, containment and
valuing primitives, and keeps a running least value per goal.  The anchor
screen must keep every triple of it that stage 3 could confirm as a winner.
"""

import importlib
import math
from typing import Iterator, Optional

import numpy as np

psi_module = importlib.import_module("mixwidth.psi")
_contains, _log_value, _orient = psi_module._contains, psi_module._log_value, psi_module._orient
# Triples per slab; the triples kept do not depend on it.
SLAB = 1 << 16


def grid_triples(du: np.ndarray, dv: np.ndarray, la: np.ndarray, lgoal: np.ndarray,
                 window: float, first: int, slot: int) -> Iterator[tuple]:
    """Components 6 and 7 of one larger instance: triples a < b < c, per middle index b.

    (du[g], dv[g]) are its balls' float offsets from the goal of component
    slot + g, for g = 0, 1, and `la` their log radii.  Per b the triples are
    an a-by-c grid for both goals at once, screened in slabs of at most
    SLAB triples, with each orientation computed from slices of
    (du, dv) as `_orient` computes it.  The screen also values each sure
    triple as stage 2 does (`_log_value`, with lgoal[g] the log of goal g's
    profile), keeps a running least value per goal, and drops a sure triple
    above it by more than the instance's `window`.  For a goal where a sure
    triple could be risky, every triple that may contain it is kept.
    Yields stage-2 batches without their profile logs, with balls numbered
    from `first`.
    """
    n = du.shape[1]
    vmin = np.full(2, math.inf)
    safe = np.abs(lgoal) + np.abs(la).max() * (1.0 + 1e-9) <= psi_module._LOG_SAFE
    window = np.where(safe, window, math.inf)

    def slab(b: int, a0: int, a1: int) -> Optional[tuple]:
        """The stage-2 batch of triples a0 <= a < a1 <= b < c for both goals, or None."""
        ub, vb, uc, vc = du[:, b, None, None], dv[:, b, None, None], du[:, None, b + 1:], dv[:, None, b + 1:]
        ua, va = du[:, a0:a1, None], dv[:, a0:a1, None]
        hit, weights, unsure = _contains(_orient(ua, va, ub, vb), _orient(ub, vb, uc, vc), _orient(uc, vc, ua, va))
        # Slab row q is ball a0 + q % na about goal q // na; column c - b - 1 is ball c.
        na, nc = a1 - a0, n - b - 1
        q = hit // nc
        c = hit - q * nc
        c += b + 1
        lnu = np.concatenate((la[a0:a1],) * 2).take(q), la[b], la.take(c)
        logv = _log_value(zip(weights.T, lnu), lgoal.repeat(na).take(q))
        logv[unsure] = math.inf
        split = q.searchsorted(na)
        np.minimum(vmin, (logv[:split].min(initial=math.inf), logv[split:].min(initial=math.inf)), out=vmin)
        keep = logv <= (vmin + window).repeat(na).take(q)
        keep |= unsure
        keep = keep.nonzero()[0]
        if not keep.size:
            return None
        g, a = np.divmod(q.take(keep), na)
        rows = np.column_stack((a + a0, np.full(keep.size, b), c.take(keep)))
        rows += first
        return slot + g, rows, weights[keep], unsure[keep]

    for b in range(1, n - 1):
        step = max(1, SLAB // (2 * (n - b - 1)))
        for a0 in range(0, b, step):
            batch = slab(b, a0, min(b, a0 + step))
            if batch is not None:
                yield batch
