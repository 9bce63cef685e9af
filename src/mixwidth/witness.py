"""Lower-bound witness sets built from signed permutations of a block matrix.

The witness body V_{r,l} is the convex hull of all signed row/column
permutations of the r x l indicator block.  Every mixed norm is invariant
under that group and the ball intersection M is convex, so the largest t
with t*V_{r,l} inside M is found by testing the single extreme point: an
exact reduction, not a sampling approximation.  Combining that scale with
the two-branch width bound for V_{r,l} and maximizing over an (r, l) grid
yields a constructive lower-bound witness for the width of M.

Only the high branch of the width bound reads n, so `WitnessGrid` builds
the scale grid, each cell's crossover and low branch, and the scalar scale
of every cell it re-scores once, and serves a whole sweep's rows;
`best_witness_lower_bound` is one grid's best cell at the instance's n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import Exponent
from .phi import _REL_BRANCH_TOL, ConsistencyError
from .psi import _LOG_SAFE, Instance


@dataclass(frozen=True)
class GroupElement:
    """A signed permutation of rows and columns (entries of the symmetry group)."""

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    row_signs: tuple[int, ...]
    col_signs: tuple[int, ...]

    def __post_init__(self) -> None:
        for perm in (self.row_perm, self.col_perm):
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"not a permutation: {perm}")
        for signs in (self.row_signs, self.col_signs):
            if any(s not in (-1, 1) for s in signs):
                raise ValueError(f"signs must be +-1: {signs}")
        if len(self.row_perm) != len(self.row_signs) or len(self.col_perm) != len(
            self.col_signs
        ):
            raise ValueError("permutation and sign lengths must match")

    @classmethod
    def random(cls, m: int, k: int, rng: np.random.Generator) -> "GroupElement":
        return cls(
            tuple(rng.permutation(m).tolist()),
            tuple(rng.permutation(k).tolist()),
            tuple(rng.choice((-1, 1), size=m).tolist()),
            tuple(rng.choice((-1, 1), size=k).tolist()),
        )


def v_extreme_point(m: int, k: int, r: int, l: int) -> np.ndarray:
    """The m x k matrix with ones on the leading r x l block and zeros elsewhere."""
    if not (1 <= r <= m and 1 <= l <= k):
        raise ValueError(f"need 1 <= r <= m and 1 <= l <= k, got r={r}, l={l}")
    e = np.zeros((m, k))
    e[:r, :l] = 1.0
    return e


def group_apply(g: GroupElement, x) -> np.ndarray:
    """y[i, j] = row_sign[i] * col_sign[j] * x[row_perm[i], col_perm[j]]."""
    a = np.asarray(x, dtype=float)
    if a.shape != (len(g.row_perm), len(g.col_perm)):
        raise ValueError(
            f"shape mismatch: matrix {a.shape}, element "
            f"({len(g.row_perm)}, {len(g.col_perm)})"
        )
    y = a[np.ix_(g.row_perm, g.col_perm)]
    return np.asarray(g.row_signs, float)[:, None] * np.asarray(g.col_signs, float)[None, :] * y


def v_inclusion_scale(balls: Sequence, r: int, l: int) -> float:
    """Largest t with t*V_{r,l} inside the ball intersection.

    By group invariance and convexity this equals the largest t with the
    single extreme point inside: min over balls of nu * r^{-1/p} * l^{-1/theta}.
    """
    if not balls:
        raise ValueError("need a nonempty ball family")
    if r < 1 or l < 1:
        raise ValueError(f"block sizes must be positive, got ({r}, {l})")
    return min(_scale(b.nu, float(b.p.u), float(b.theta.u), r, l) for b in balls)


def _scale(nu, u, v, r, l):
    """nu r^(-u) l^(-v): one ball's inclusion scale, for floats or arrays that broadcast."""
    return nu * r ** -u * l ** -v


def v_width_lower_bound(
    m: int, k: int, r: int, l: int, n: int, q: Exponent, sigma: Exponent
) -> float:
    """Two-branch width lower-bound formula for the witness body V_{r,l}.

    Returns r^{1/q} * l^{1/sigma} while n stays below the crossover
    m^{2/q} k^{2/sigma} r^{1-2/q} l^{1-2/sigma}, and
    n^{-1/2} m^{1/q} k^{1/sigma} r^{1/2} l^{1/2} beyond it; both branches
    coincide at the crossover, which is asserted when n lands there.
    """
    if not (1 <= r <= m and 1 <= l <= k):
        raise ValueError(f"need 1 <= r <= m and 1 <= l <= k, got r={r}, l={l}")
    if n < 0 or 2 * n > m * k:
        raise ValueError(f"need 0 <= n <= m*k/2, got n={n}")
    crossover, low, high = _width(m, k, r, l, n, float(q.u), float(sigma.u), math.sqrt)
    if abs(n - crossover) <= 1e-9 * max(1.0, crossover):
        if abs(low - high) > _REL_BRANCH_TOL * max(low, high):
            raise ConsistencyError(f"branch mismatch at the crossover: {low} vs {high}")
    return low if n <= crossover else high


def _width(m, k, r, l, n, uq, vs, sqrt) -> tuple:
    """(crossover, low, high) of `v_width_lower_bound`, for int r, l or float arrays that broadcast.

    Only high reads n: `_high`.
    """
    crossover = m ** (2 * uq) * k ** (2 * vs) * r ** (1 - 2 * uq) * l ** (1 - 2 * vs)
    low = r**uq * l**vs
    return crossover, low, _high(m, k, r, l, n, uq, vs, sqrt)


def _high(m, k, r, l, n, uq, vs, sqrt):
    """The width bound's branch beyond the crossover (+inf at n = 0)."""
    return math.inf if n == 0 else n**-0.5 * m**uq * k**vs * sqrt(r) * sqrt(l)


def _axis_grid(limit: int) -> list[int]:
    """All block sizes up to 64, a logarithmic subset beyond."""
    if limit <= 64:
        return list(range(1, limit + 1))
    vals = {1, limit}
    vals.update(
        min(limit, max(1, round(limit ** (i / 128.0)))) for i in range(129)
    )
    return sorted(vals)


# Re-score every cell whose float value is within relative _WINDOW of the
# best sure one.  A sure cell's float value errs by a few ulps against the
# scalar one, so every cell that could attain the scalar maximum is kept.
_WINDOW = 1e-9
# Re-score every cell with |n - crossover| <= _CROSS_MARGIN * crossover, so
# that the scalar code picks its branch and checks the branches agree.  The
# crossover is at least 1, so the scalar rule |n - c| <= 1e-9 * max(1, c)
# lies well inside.
_CROSS_MARGIN = 1e-6


def best_witness_lower_bound(inst: Instance) -> tuple[float, int, int]:
    """Best witness lower bound over the (r, l) grid, with its argmax.

    LB(r, l) = v_inclusion_scale(balls, r, l) * v_width_lower_bound(...);
    ties resolve to the smallest r, then the smallest l.  numpy scores the
    whole grid with the scalar code's formulas (`_scale`, `_width`) on
    float axes.  The scalar code then re-scores, in (r, l) order, every cell
    within a relative window of the best, every cell where n may sit at the
    crossover, and every cell whose product may leave the normal float
    range, so the result is that of a full scalar scan.
    """
    return WitnessGrid(inst).best(inst.dims.n)


class WitnessGrid:
    """`best_witness_lower_bound` of one family at any n, with what does not read n found once.

    Built once: the inclusion scale of every grid cell (a running minimum
    over the balls), the log-size of each scale that the float range test
    reads, and each cell's crossover and low width branch.  The scalar
    `v_inclusion_scale` of a cell is computed the first time `best`
    re-scores it, and kept.  `best(n)` evaluates the high width branch
    (`_high`), scores the grid and re-scores its window.
    """

    def __init__(self, inst: Instance):
        m, k = inst.dims.m, inst.dims.k
        self.inst = inst
        self.uq, self.vs = float(inst.target.q.u), float(inst.target.sigma.u)
        self.rs, self.ls = _axis_grid(m), _axis_grid(k)
        # Float axes: beyond 2**63 a list of Python ints would make object arrays.
        self.rf, self.lf = np.array(self.rs, float)[:, None], np.array(self.ls, float)[None, :]
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            # A running minimum over the balls keeps memory O(grid), not O(N * grid).
            self.scale = np.full((len(self.rs), len(self.ls)), np.inf)
            for ball, u, v in zip(inst.balls, *inst._ball_arrays[:2]):
                np.minimum(self.scale, _scale(ball.nu, u, v, self.rf, self.lf), out=self.scale)
            self.crossover, self.low, _ = _width(m, k, self.rf, self.lf, 0, self.uq, self.vs, np.sqrt)
            self.log_scale = np.abs(np.log(self.scale))
        self.largest = self.log_scale.max()
        self.scalar: dict[tuple[int, int], float] = {}

    def best(self, n: int) -> tuple[float, int, int]:
        """`best_witness_lower_bound` of the family at width index n."""
        inst = self.inst
        m, k = inst.dims.m, inst.dims.k
        uq, vs, crossover = self.uq, self.vs, self.crossover
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            high = _high(m, k, self.rf, self.lf, n, uq, vs, np.sqrt)
            score = self.scale * np.where(n <= crossover, self.low, high)
            unsure = np.abs(n - crossover) <= _CROSS_MARGIN * crossover
            # psi's _LOG_SAFE policy: the width's factors and partial products lie within
            # e^(+-bound), the scale's between its radius and the scale.
            bound = 0.5 * math.log(max(n, 1)) + (1 + uq) * math.log(m) + (1 + vs) * math.log(k)
            if not self.largest + bound <= _LOG_SAFE:
                unsure |= self.log_scale + bound > _LOG_SAFE
        top = score[~unsure].max(initial=-math.inf)
        best, best_r, best_l = -math.inf, 1, 1
        for i, j in zip(*np.nonzero(unsure | (score >= top * (1 - _WINDOW)))):
            r, l = self.rs[i], self.ls[j]
            if (r, l) not in self.scalar:
                self.scalar[r, l] = v_inclusion_scale(inst.balls, r, l)
            lb = self.scalar[r, l] * v_width_lower_bound(m, k, r, l, n, inst.target.q, inst.target.sigma)
            if lb > best:
                best, best_r, best_l = lb, r, l
        return best, best_r, best_l
