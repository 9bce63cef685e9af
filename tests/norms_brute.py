"""Per-matrix mixed norm: the exact reference for `mixwidth.norms`.

This is the norm as it was before the stacked rewrite: each column's l_p
norm is taken over the nonzero columns only, and the l_theta norm of the
column norms is one scalar expression.  `mixed_norm`, `membership` and
`membership_ratios` must give the same values, bit for bit.
`interpolation_check` is the two-norm inequality as it was before it became
the two-space case of `corollary_check`, which must return the same
(lhs, rhs, holds), bit for bit.
"""

from fractions import Fraction

import numpy as np

from mixwidth.exponents import convex_combine
from mixwidth.norms import MEMBERSHIP_SLACK


def _lp_rows(a, p):
    """l_p norm of each column of a nonnegative 2-d array (vectorized, max-factored)."""
    if p.is_inf:
        return a.max(axis=0)
    pf = p.value
    s = a.max(axis=0)
    out = np.zeros_like(s)
    nz = s > 0
    if np.any(nz):
        scaled = a[:, nz] / s[nz]
        out[nz] = s[nz] * (scaled**pf).sum(axis=0) ** (1.0 / pf)
    return out


def mixed_norm(x, p, theta):
    """The (p, theta) mixed norm of an m x k matrix; inf exponents mean max."""
    a = np.abs(np.asarray(x, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    cols = _lp_rows(a, p)
    if theta.is_inf:
        return float(cols.max())
    tf = theta.value
    s = cols.max()
    if s == 0:
        return 0.0
    return float(s * ((cols / s) ** tf).sum() ** (1.0 / tf))


def membership(x, balls):
    """Whether x lies in every ball, and the largest norm/radius ratio seen."""
    ratio = max(mixed_norm(x, b.p, b.theta) / b.nu for b in balls)
    return ratio <= 1.0 + MEMBERSHIP_SLACK, float(ratio)


def interpolation_check(x, s1, s2, lam):
    """||x||_{p,theta} <= ||x||_{s1}^{1-lam} * ||x||_{s2}^{lam} at the convex
    combination (p, theta) of s1 and s2; (lhs, rhs, holds)."""
    lam = Fraction(lam)
    p = convex_combine(s1[0], s2[0], lam)
    theta = convex_combine(s1[1], s2[1], lam)
    lhs = mixed_norm(x, p, theta)
    rhs = mixed_norm(x, *s1) ** float(1 - lam) * mixed_norm(x, *s2) ** float(lam)
    return lhs, rhs, lhs <= rhs * (1.0 + MEMBERSHIP_SLACK)
