"""The per-row sweep: the reference for `mixwidth.cli.run_sweep`.

Each row is a fresh `Instance` at its n, estimated by `psi_many` of the row
instances and bounded by `best_witness_lower_bound` of that row, so no row
shares anything with another.  `run_sweep` was this loop before its rows
shared their n-independent work through `psi_sweep` and `WitnessGrid`.
"""

import math

from mixwidth import ConsistencyError, Dimensions, Instance, best_witness_lower_bound
from mixwidth.psi import REL_TIE_TOL, psi_many


def shifted(inst: Instance, n: int) -> Instance:
    return Instance(Dimensions(inst.dims.m, inst.dims.k, n), inst.target, inst.balls)


def reference_estimates(inst: Instance, ns) -> list:
    """`psi` of `inst` at each n of `ns`, one fresh instance per row."""
    return list(psi_many(shifted(inst, n) for n in ns))


def reference_rows(inst: Instance, n_from: int, n_to: int) -> list[dict]:
    """The rows of `run_sweep(inst, n_from, n_to)`, one row at a time."""
    rows = []
    for n, est in zip(range(n_from, n_to + 1), reference_estimates(inst, range(n_from, n_to + 1))):
        if math.isinf(est.value):
            raise ValueError("psi overflows the float range for these radii")
        lb, _, _ = best_witness_lower_bound(shifted(inst, n))
        rows.append({
            "n": n,
            "psi": est.value,
            "argmin_set": "|".join(str(j) for j in est.argmin),
            **{f"psi_{j}": "inf" if math.isinf(v) else v for j, v in enumerate(est.components)},
            "witness_lb": lb,
        })
    for prev, cur in zip(rows, rows[1:]):
        if cur["psi"] > prev["psi"] * (1.0 + REL_TIE_TOL):
            raise ConsistencyError(f"psi not monotone at n={cur['n']}")
    return rows
