"""Brute-force witness grid scan: the exact reference for `mixwidth.witness`.

Every (r, l) cell of the grid is scored with the scalar formulas, in (r, l)
order, and the first strict maximum wins.  `inclusion_scale` and
`width_lower_bound` are `v_inclusion_scale` and `v_width_lower_bound` as they
were before their formulas moved into the `_scale` and `_width` they now
share with the grid screen; the src functions must return the same floats,
bit for bit, and raise the same errors.  The scan shares no code with
`best_witness_lower_bound` beyond the grid.
"""

import math

from mixwidth import witness
from mixwidth.phi import ConsistencyError
from mixwidth.witness import _axis_grid


def inclusion_scale(balls, r, l):
    if not balls:
        raise ValueError("need a nonempty ball family")
    if r < 1 or l < 1:
        raise ValueError(f"block sizes must be positive, got ({r}, {l})")
    return min(
        b.nu * r ** -float(b.p.u) * l ** -float(b.theta.u) for b in balls
    )


def width_lower_bound(m, k, r, l, n, q, sigma):
    if not (1 <= r <= m and 1 <= l <= k):
        raise ValueError(f"need 1 <= r <= m and 1 <= l <= k, got r={r}, l={l}")
    if n < 0 or 2 * n > m * k:
        raise ValueError(f"need 0 <= n <= m*k/2, got n={n}")
    uq, vs = float(q.u), float(sigma.u)
    crossover = m ** (2 * uq) * k ** (2 * vs) * r ** (1 - 2 * uq) * l ** (1 - 2 * vs)
    low = r**uq * l**vs
    high = (
        math.inf
        if n == 0
        else n**-0.5 * m**uq * k**vs * math.sqrt(r) * math.sqrt(l)
    )
    if abs(n - crossover) <= 1e-9 * max(1.0, crossover):
        # read at call time, so a test that patches the tolerance of
        # `mixwidth.witness` patches the reference too
        if abs(low - high) > witness._REL_BRANCH_TOL * max(low, high):
            raise ConsistencyError(f"branch mismatch at the crossover: {low} vs {high}")
    return low if n <= crossover else high


def brute_witness(inst):
    m, k, n = inst.dims.m, inst.dims.k, inst.dims.n
    q, sigma = inst.target.q, inst.target.sigma
    best, best_r, best_l = -math.inf, 1, 1
    for r in _axis_grid(m):
        for l in _axis_grid(k):
            lb = inclusion_scale(inst.balls, r, l) * width_lower_bound(
                m, k, r, l, n, q, sigma
            )
            if lb > best:
                best, best_r, best_l = lb, r, l
    return best, best_r, best_l
