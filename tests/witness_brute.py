"""Brute-force witness grid scan: the exact reference for `mixwidth.witness`.

Every (r, l) cell of the grid is scored with the scalar code, in (r, l)
order, and the first strict maximum wins.  The scan shares no code with
`best_witness_lower_bound` beyond the grid and the scalar primitives it
confirms with.
"""

import math

from mixwidth.witness import _axis_grid, v_inclusion_scale, v_width_lower_bound


def brute_witness(inst):
    m, k, n = inst.dims.m, inst.dims.k, inst.dims.n
    q, sigma = inst.target.q, inst.target.sigma
    best, best_r, best_l = -math.inf, 1, 1
    for r in _axis_grid(m):
        for l in _axis_grid(k):
            lb = v_inclusion_scale(inst.balls, r, l) * v_width_lower_bound(
                m, k, r, l, n, q, sigma
            )
            if lb > best:
                best, best_r, best_l = lb, r, l
    return best, best_r, best_l
