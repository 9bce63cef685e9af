"""Two-transcription single-ball profile: the exact reference for `mixwidth.phi`.

This is `phi` as it was before its six branch formulas moved into the one
`_branches` it now shares with `log_phi_array`: each branch is written out
in power form, in its own region test.  `phi` must return the same value
and branch set, bit for bit, and raise the same exception type.
"""

import math
from fractions import Fraction

import numpy as np

from mixwidth.exponents import HALF
from mixwidth.phi import (
    _REL_BRANCH_TOL,
    ConsistencyError,
    PhiValue,
    _branches,
    profile_params,
)


def omega(p, q):
    """Interpolation ratio for p <= q: min{(1/p - 1/q)/(1/2 - 1/q), 1}, or 1 at q = 2."""
    if p.u < q.u:
        raise ValueError(f"requires p <= q, got p={p}, q={q}")
    if q.u == HALF:
        return Fraction(1)
    return min((p.u - q.u) / (HALF - q.u), Fraction(1))


def _pow(base, e):
    # float('inf') ** 0.0 == 1.0, which is exactly the convention needed at n = 0.
    return base ** float(e)


def brute_phi(p, theta, target, dims):
    u, v = p.u, theta.u
    uq, vs = target.q.u, target.sigma.u
    fm, fk = float(dims.m), float(dims.k)
    rootn = math.inf if dims.n == 0 else dims.n**-0.5

    values = {}

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


def brute_log_phi_array(u, v, target, dims):
    """log Phi by evaluating every branch on every point, then the masked minimum.

    This is `log_phi_array` as it was before it evaluated each branch only on
    its region's points.
    """
    uq, vs, fm, fk, big, row, col = profile_params(target, dims)
    wp = np.ones_like(u) if uq == 0.5 else np.minimum((u - uq) / (0.5 - uq), 1.0)
    wt = np.ones_like(v) if vs == 0.5 else np.minimum((v - vs) / (0.5 - vs), 1.0)
    lo_u, hi_u, lo_v, hi_v = u <= uq, u >= uq, v <= vs, v >= vs
    regions = (lo_u & lo_v, lo_u & hi_v, hi_u & lo_v, hi_u & hi_v & (u <= 0.5) & (wp <= wt),
               hi_u & hi_v & (v <= 0.5) & (wt <= wp), (u >= 0.5) & (v >= 0.5))
    with np.errstate(over="ignore"):
        values = _branches(fm ** (uq - u), fk ** (vs - v), wp, wt, big, row, col, np.minimum)
    out = np.full_like(u, math.inf)
    for region, value in zip(regions, values.values()):
        np.minimum(out, value, out=out, where=region)
    return np.log(out)
