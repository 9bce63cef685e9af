"""Single-ball width profile in mixed norms.

`phi` evaluates the closed-form order profile Phi(p, theta; q, sigma, m, k, n)
of the n-width of the unit (p, theta)-ball measured in the (q, sigma) mixed
norm, for 2 <= q, sigma < inf and n <= m*k/2.  The exponent square splits into
six closed regions, each with its own formula; the formulas coincide on the
overlaps, which `phi` asserts on every call.

Region membership is decided with exact rational comparisons on reciprocal
exponents, made in `_regions` on integer numerators and denominators; only
the final power evaluations are floating point.  `phi` is `_profile` of
`_regions`: the regions do not read n, so a caller that values one point at
many n, or many candidates at one point, finds them once.  `phi` and its
float array form `log_phi_array` evaluate the one set of formulas in
`_branches`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exponents import HALF, Exponent

_REL_BRANCH_TOL = 1e-9
# The branches of `_branches` that read wp, wt, G, R and C.
_READS = ((3, 4, 5), (2, 4, 5), (4, 5, 6), (2, 4), (3, 5))


class ConsistencyError(ArithmeticError):
    """An internal consistency check failed: a bug, not bad input."""


@dataclass(frozen=True)
class Dimensions:
    """Block shape (m inner, k outer) and the width index n <= m*k/2."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.k, int) and isinstance(self.n, int)):
            raise ValueError("m, k, n must be integers")
        if self.m < 1 or self.k < 1:
            raise ValueError(f"m and k must be positive, got m={self.m}, k={self.k}")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got n={self.n}")
        for name in ("m", "k", "n"):
            if getattr(self, name) > sys.float_info.max:
                raise ValueError(f"{name}: integer too large for a float")
        if 2 * self.n > self.m * self.k:
            raise ValueError(f"n={self.n} exceeds m*k/2={self.m * self.k / 2}")


@dataclass(frozen=True)
class TargetSpace:
    """The ambient mixed norm (q, sigma) with 2 <= q, sigma < infinity."""

    q: Exponent
    sigma: Exponent

    def __post_init__(self) -> None:
        for name, e in (("q", self.q), ("sigma", self.sigma)):
            if not 0 < e.u <= HALF:
                raise ValueError(f"{name} must lie in [2, inf), got {e}")


@dataclass(frozen=True)
class PhiValue:
    """A profile value together with every branch whose region contained the input."""

    value: float
    branches: tuple[int, ...]


def profile_params(target: TargetSpace, dims: Dimensions) -> tuple[float, ...]:
    """(1/q, 1/sigma, m, k, G, R, C) in floats: what `_branches` reads of an instance.

    G = n^(-1/2) m^(1/q) k^(1/sigma), and R (C) is G with m^(1/2) for
    m^(1/q) (k^(1/2) for k^(1/sigma)).  At n = 0 all three are +inf.
    """
    uq, vs = float(target.q.u), float(target.sigma.u)
    fm, fk = float(dims.m), float(dims.k)
    rootn = math.inf if dims.n == 0 else dims.n**-0.5
    return (uq, vs, fm, fk, rootn * fm**uq * fk**vs,
            rootn * math.sqrt(fm) * fk**vs, rootn * fm**uq * math.sqrt(fk))


def _branches(a, b, wp, wt, big, row, col, minimum, holds=(True,) * 6) -> dict:
    """Phi's six branch formulas, written once: {j: branch j} where holds[j - 1].

    a = m^(1/q - 1/p), b = k^(1/sigma - 1/theta), the omegas wp, wt and the
    bases G, R, C of `profile_params` are floats (from `phi`, with the
    builtin min) or arrays (from `log_phi_array`, with np.minimum).  Branch 1
    is a b, 2 min(a, a R^wt), 3 min(b, b C^wp), 4 min(1, G^wp, a R^wt),
    5 min(1, G^wt, b C^wp) and 6 min(1, G).  At n = 0, G, R and C are +inf
    and inf ** 0.0 == 1.0, so each min picks its finite term.
    """
    h1, h2, h3, h4, h5, h6 = holds
    if h2 or h4:
        a_row = a * row**wt
    if h3 or h5:
        b_col = b * col**wp
    values = {1: a * b} if h1 else {}
    if h2:
        values[2] = minimum(a, a_row)
    if h3:
        values[3] = minimum(b, b_col)
    if h4:
        values[4] = minimum(minimum(1.0, big**wp), a_row)
    if h5:
        values[5] = minimum(minimum(1.0, big**wt), b_col)
    if h6:
        values[6] = minimum(1.0, big)
    return values


def phi(p: Exponent, theta: Exponent, target: TargetSpace, dims: Dimensions) -> PhiValue:
    """Evaluate the six-branch profile at (p, theta).

    Every branch whose (closed) region contains the point is evaluated; the
    results must agree to relative 1e-9 and the minimum is returned together
    with the list of applicable branch ids.  At n = 0 the factor n^{-1/2} is
    taken as +inf so each min picks its finite branch.
    """
    u, v, params = p.u, theta.u, profile_params(target, dims)
    return _profile(_regions(u.numerator, u.denominator, v.numerator, v.denominator, target, params), params)


def _omega(num: int, den: int) -> tuple[int, int]:
    """min(num / den, 1) as (numerator, denominator) for num >= 0, and 1 when den = 0."""
    return (num, den) if 0 <= num < den else (1, 1)


def _regions(un: int, ud: int, vn: int, vd: int, target: TargetSpace, params) -> tuple:
    """The part of `phi` that does not read n, at (1/p, 1/theta) = (un/ud, vn/vd), ud, vd > 0.

    Returns (a, b, wp, wt, holds), the first arguments of `_branches`, with
    None for each of a, b, wp and wt that no holding branch reads, so equal
    tuples give equal profiles.  Of `params`, the point's `profile_params`,
    it reads only m and k.  The region tests and omegas are exact: integers
    compared by cross-multiplication.  Each float exponent is an int true
    division, which is correctly rounded as float(Fraction) is.
    """
    uq, vs = target.q.u, target.sigma.u
    aq, bq, av, bv = uq.numerator, uq.denominator, vs.numerator, vs.denominator
    # u - 1/q = du / (ud bq) and v - 1/sigma = dv / (vd bv)
    du, dv = un * bq - aq * ud, vn * bv - av * vd
    lo_u, hi_u, lo_v, hi_v = du <= 0, du >= 0, dv <= 0, dv >= 0
    r4 = hi_u and hi_v and 2 * un <= ud  # 2 <= p <= q, 1 <= theta <= sigma, if wp <= wt
    r5 = hi_u and hi_v and 2 * vn <= vd  # 2 <= theta <= sigma, 1 <= p <= q, if wt <= wp
    # (u - 1/q) / (1/2 - 1/q) = 2 du / (ud (bq - 2 aq)), whose denominator is 0 at q = 2.
    # An omega is computed only when a holding branch reads it.
    wp = _omega(2 * du, ud * (bq - 2 * aq)) if (hi_u and lo_v) or r4 or r5 else None
    wt = _omega(2 * dv, vd * (bv - 2 * av)) if (lo_u and hi_v) or r4 or r5 else None
    if r4 or r5:
        p_first, t_first = wp[0] * wt[1] <= wt[0] * wp[1], wt[0] * wp[1] <= wp[0] * wt[1]
        r4, r5 = r4 and p_first, r5 and t_first
    _, _, fm, fk = params[:4]
    a = fm ** (-du / (ud * bq)) if lo_u or r4 else None
    b = fk ** (-dv / (vd * bv)) if lo_v or r5 else None
    holds = (lo_u and lo_v, lo_u and hi_v, hi_u and lo_v, r4, r5, 2 * un >= ud and 2 * vn >= vd)
    if not any(holds):
        u, v = Fraction(un, ud), Fraction(vn, vd)
        raise ConsistencyError(f"no branch covers (1/p, 1/theta) = ({u}, {v})")
    return a, b, wp and wp[0] / wp[1], wt and wt[0] / wt[1], holds  # None stays None


def _profile(regions: tuple, params) -> PhiValue:
    """The profile from `_regions` and the G, R and C of `params`: the part of `phi` that reads n."""
    a, b, wp, wt, holds = regions
    values = _branches(a, b, wp, wt, *params[4:], min, holds)
    lo, hi = min(values.values()), max(values.values())
    if hi - lo > _REL_BRANCH_TOL * hi:
        raise ConsistencyError(f"applicable branches disagree beyond tolerance: {values}")
    return PhiValue(lo, tuple(values))  # the holding branches, in increasing order


def log_phi_array(u: np.ndarray, v: np.ndarray, params) -> np.ndarray:
    """log Phi at float reciprocal points (u, v), the array form of `phi`.

    `params` is `profile_params` of the points' instance, or seven arrays
    holding it per point, so one call can serve many instances.  Each branch
    of `_branches` is evaluated only on the points its region contains, and
    the minimum is taken, as in `phi`.  Region tests run in floats, so a
    point within rounding of a region boundary may be assigned to the
    neighbouring branch; the branches agree on their overlaps, so the value
    moves only by the rounding.  The branch 4 and 5 tests compare the same
    two float ratios both ways, so on the critical line (where the ratios
    are equal) at least one of them holds.
    """
    uq, vs, fm, fk, big, row, col = map(np.asarray, params)
    # A product past the float range is the larger term of a min, so it
    # never reaches the result; the omegas at q or sigma = 2 are replaced.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wp = np.where(uq == 0.5, 1.0, np.minimum((u - uq) / (0.5 - uq), 1.0))
        wt = np.where(vs == 0.5, 1.0, np.minimum((v - vs) / (0.5 - vs), 1.0))
        lo_u, hi_u, lo_v, hi_v = u <= uq, u >= uq, v <= vs, v >= vs
        regions = (lo_u & lo_v, lo_u & hi_v, hi_u & lo_v, hi_u & hi_v & (u <= 0.5) & (wp <= wt),
                   hi_u & hi_v & (v <= 0.5) & (wt <= wp), (u >= 0.5) & (v >= 0.5))
        out = np.full(u.shape, math.inf)
        for j, region in enumerate(regions, 1):
            (at,) = np.nonzero(region)
            if not at.size:
                continue
            a = _cut(fm, at) ** (_cut(uq, at) - u[at]) if j in (1, 2, 4) else None
            b = _cut(fk, at) ** (_cut(vs, at) - v[at]) if j in (1, 3, 5) else None
            reads = (_cut(x, at, j in js) for x, js in zip((wp, wt, big, row, col), _READS))
            holds = tuple(i == j for i in range(1, 7))
            value = _branches(a, b, *reads, np.minimum, holds)[j]
            out[at] = np.minimum(out[at], value)
    return np.log(out)


def _cut(x: np.ndarray, at: np.ndarray, used: bool = True):
    """x at the points `at` (a per-instance scalar as it is), or None if unused."""
    return (x[at] if x.ndim else x) if used else None
