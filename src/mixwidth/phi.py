"""Single-ball width profile in mixed norms.

`phi` evaluates the closed-form order profile Phi(p, theta; q, sigma, m, k, n)
of the n-width of the unit (p, theta)-ball measured in the (q, sigma) mixed
norm, for 2 <= q, sigma < inf and n <= m*k/2.  The exponent square splits into
six closed regions, each with its own formula; the formulas coincide on the
overlaps, which `phi` asserts on every call.

Region membership is decided with exact rational comparisons on reciprocal
exponents; only the final power evaluations are floating point.
`log_phi_array` is the float array form used to screen many points at once;
`phi` stays the exact reference and the public API.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exponents import HALF, Exponent

_REL_BRANCH_TOL = 1e-9


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


def omega(p: Exponent, q: Exponent) -> Fraction:
    """Interpolation ratio for p <= q: min{(1/p - 1/q)/(1/2 - 1/q), 1}, or 1 at q = 2."""
    if p.u < q.u:
        raise ValueError(f"requires p <= q, got p={p}, q={q}")
    if q.u == HALF:
        return Fraction(1)
    return min((p.u - q.u) / (HALF - q.u), Fraction(1))


def _pow(base: float, e) -> float:
    # float('inf') ** 0.0 == 1.0, which is exactly the convention needed at n = 0.
    return base ** float(e)


def phi(p: Exponent, theta: Exponent, target: TargetSpace, dims: Dimensions) -> PhiValue:
    """Evaluate the six-branch profile at (p, theta).

    Every branch whose (closed) region contains the point is evaluated; the
    results must agree to relative 1e-9 and the minimum is returned together
    with the list of applicable branch ids.  At n = 0 the factor n^{-1/2} is
    taken as +inf so each min picks its finite branch.
    """
    u, v = p.u, theta.u
    uq, vs = target.q.u, target.sigma.u
    fm, fk = float(dims.m), float(dims.k)
    rootn = math.inf if dims.n == 0 else dims.n**-0.5

    values: dict[int, float] = {}

    if u <= uq and v <= vs:  # p >= q, theta >= sigma
        values[1] = _pow(fm, uq - u) * _pow(fk, vs - v)
    if u <= uq and v >= vs:  # p >= q, theta <= sigma
        a = _pow(fm, uq - u)
        w = omega(theta, target.sigma)
        values[2] = min(a, a * _pow(rootn * math.sqrt(fm) * _pow(fk, vs), w))
    if u >= uq and v <= vs:  # p <= q, theta >= sigma
        a = _pow(fk, vs - v)
        w = omega(p, target.q)
        values[3] = min(a, a * _pow(rootn * _pow(fm, uq) * math.sqrt(fk), w))
    if uq <= u <= HALF and v >= vs:
        wp, wt = omega(p, target.q), omega(theta, target.sigma)
        if wp <= wt:  # 2 <= p <= q, 1 <= theta <= sigma, slower direction p
            values[4] = min(
                1.0,
                _pow(rootn * _pow(fm, uq) * _pow(fk, vs), wp),
                _pow(fm, uq - u) * _pow(rootn * math.sqrt(fm) * _pow(fk, vs), wt),
            )
    if vs <= v <= HALF and u >= uq:
        wp, wt = omega(p, target.q), omega(theta, target.sigma)
        if wt <= wp:  # 2 <= theta <= sigma, 1 <= p <= q, slower direction theta
            values[5] = min(
                1.0,
                _pow(rootn * _pow(fm, uq) * _pow(fk, vs), wt),
                _pow(fk, vs - v) * _pow(rootn * _pow(fm, uq) * math.sqrt(fk), wp),
            )
    if u >= HALF and v >= HALF:  # p <= 2, theta <= 2
        values[6] = min(1.0, rootn * _pow(fm, uq) * _pow(fk, vs))

    if not values:
        raise ConsistencyError(
            f"no branch covers (1/p, 1/theta) = ({u}, {v}); this cannot happen "
            "for exponents in [1, inf]"
        )
    lo, hi = min(values.values()), max(values.values())
    if hi - lo > _REL_BRANCH_TOL * hi:
        raise ConsistencyError(
            f"applicable branches disagree beyond tolerance: {values}"
        )
    return PhiValue(lo, tuple(sorted(values)))


def _times(w: np.ndarray, c: float) -> np.ndarray:
    """w * c with 0 * inf = 0, the log form of inf ** 0.0 == 1.0 at n = 0."""
    if math.isinf(c):
        return np.where(w > 0, c, 0.0)
    return w * c


def log_phi_array(
    u: np.ndarray, v: np.ndarray, target: TargetSpace, dims: Dimensions
) -> np.ndarray:
    """log Phi at float reciprocal points (u, v), the array form of `phi`.

    Each branch is evaluated in log space wherever its region contains the
    point, and the minimum is taken, as in `phi`.  Region tests run in
    floats, so a point within rounding of a region boundary may be assigned
    to the neighbouring branch; the branches agree on their overlaps, so the
    value moves only by the rounding.  The branch 4 and 5 tests compare the
    same two float ratios both ways, so on the critical line (where the
    ratios are equal) at least one of them holds.
    """
    uq, vs = float(target.q.u), float(target.sigma.u)
    lm, lk = math.log(dims.m), math.log(dims.k)
    lrn = math.inf if dims.n == 0 else -0.5 * math.log(dims.n)
    wp = np.ones_like(u) if uq == 0.5 else np.minimum((u - uq) / (0.5 - uq), 1.0)
    wt = np.ones_like(v) if vs == 0.5 else np.minimum((v - vs) / (0.5 - vs), 1.0)
    big = lrn + uq * lm + vs * lk  # log(n^-1/2 m^(1/q) k^(1/sigma))
    row = lrn + 0.5 * lm + vs * lk  # log(n^-1/2 m^(1/2) k^(1/sigma))
    col = lrn + uq * lm + 0.5 * lk  # log(n^-1/2 m^(1/q) k^(1/2))
    am, ak = (uq - u) * lm, (vs - v) * lk
    lo_u, hi_u, lo_v, hi_v = u <= uq, u >= uq, v <= vs, v >= vs
    am_row, ak_col = am + _times(wt, row), ak + _times(wp, col)
    out = np.full_like(u, math.inf)
    for region, value in (
        (lo_u & lo_v, am + ak),
        (lo_u & hi_v, np.minimum(am, am_row)),
        (hi_u & lo_v, np.minimum(ak, ak_col)),
        (hi_u & hi_v & (u <= 0.5) & (wp <= wt), np.minimum(_times(wp, big), am_row)),
        (hi_u & hi_v & (v <= 0.5) & (wt <= wp), np.minimum(_times(wt, big), ak_col)),
        ((u >= 0.5) & (v >= 0.5), big),
    ):
        np.minimum(out, value, out=out, where=region)
    # Branches 4-6, whose regions cover u >= 1/q, v >= 1/sigma, take a min with 1.
    return np.minimum(out, 0.0, out=out, where=hi_u & hi_v)
