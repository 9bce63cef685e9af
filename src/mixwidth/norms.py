"""Mixed norms on m x k matrices, ball membership, and interpolation checks.

The mixed (p, theta) norm takes the l_p norm down each column (the inner,
length-m index) and then the l_theta norm across the k column norms.  Norms
are evaluated with max-factoring so large exponents do not overflow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .exponents import Exponent, Weight

MEMBERSHIP_SLACK = 1e-12

ExponentPair = tuple[Exponent, Exponent]


def _mixed_norms(a: np.ndarray, p: Exponent, theta: Exponent) -> np.ndarray:
    """The (p, theta) norm of each matrix of a nonnegative c x m x k stack.

    Zero columns and zero matrices are masked, not divided by.  Each column
    is summed as one contiguous run (the stack is copied as c x k x m),
    since numpy adds a contiguous run in another order than a strided one
    from 8 terms up, and the outer root is a scalar power, since numpy's
    array power can round differently.  Both keep the values of the
    per-matrix norm in tests/norms_brute.py bit for bit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.is_inf:
            cols = a.max(axis=1)
        else:
            pf = p.value
            at = np.ascontiguousarray(a.transpose(0, 2, 1))
            s = at.max(axis=2)
            cols = np.where(
                s > 0, s * ((at / s[..., None]) ** pf).sum(axis=2) ** (1.0 / pf), 0.0
            )
        if theta.is_inf:
            return cols.max(axis=1)
        tf = theta.value
        s = cols.max(axis=1)
        sums = ((cols / s[:, None]) ** tf).sum(axis=1)
    return np.array(
        [0.0 if si == 0 else float(si * v ** (1.0 / tf)) for si, v in zip(s, sums)]
    )


def _one(x) -> np.ndarray:
    """x as a stack of one matrix, or a ValueError if it is not 2-d."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a[None]


def _abs_finite(xs) -> np.ndarray:
    """|xs| as floats, or a ValueError if an entry is not finite."""
    a = np.abs(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def mixed_norm(x, p: Exponent, theta: Exponent) -> float:
    """The (p, theta) mixed norm of an m x k matrix; inf exponents mean max."""
    return float(_mixed_norms(_abs_finite(_one(x)), p, theta)[0])


def membership_ratios(xs, balls: Sequence) -> np.ndarray:
    """The largest norm/radius ratio over the balls for each m x k matrix of a
    stack, in one pass per ball."""
    if not balls:
        raise ValueError("need a nonempty ball family")
    a = _abs_finite(xs)
    ratio = None
    for b in balls:
        r = _mixed_norms(a, b.p, b.theta) / b.nu
        ratio = r if ratio is None else np.where(r > ratio, r, ratio)
    return ratio


def membership(x, balls: Sequence) -> tuple[bool, float]:
    """Whether x lies in every ball, and the largest norm/radius ratio seen."""
    ratio = float(membership_ratios(_one(x), balls)[0])
    return ratio <= 1.0 + MEMBERSHIP_SLACK, ratio


def interpolation_check(
    x, s1: ExponentPair, s2: ExponentPair, lam: Weight
) -> tuple[float, float, bool]:
    """Two-norm interpolation inequality at the convex combination of s1, s2.

    With 1/p = (1-lam)/p1 + lam/p2 and likewise for theta, checks
    ||x||_{p,theta} <= ||x||_{p1,theta1}^{1-lam} * ||x||_{p2,theta2}^{lam}:
    the two-space case of `corollary_check`, whose (lhs, rhs, holds) it returns.
    """
    lam = Fraction(lam)
    return corollary_check(x, [(s1, 1 - lam), (s2, lam)])


def corollary_check(
    x, specs: Sequence[tuple[ExponentPair, Weight]]
) -> tuple[float, float, bool]:
    """Multiway interpolation: weights tau_i >= 0 summing to one, exactly."""
    taus = [Fraction(t) for _, t in specs]
    if any(t < 0 for t in taus):
        raise ValueError("weights must be nonnegative")
    if sum(taus) != 1:
        raise ValueError(f"weights must sum to 1, got {sum(taus)}")
    u = sum((t * pair[0].u for (pair, _), t in zip(specs, taus)), Fraction(0))
    v = sum((t * pair[1].u for (pair, _), t in zip(specs, taus)), Fraction(0))
    lhs = mixed_norm(x, Exponent(u), Exponent(v))
    rhs = 1.0
    for (pair, _), t in zip(specs, taus):
        rhs *= mixed_norm(x, *pair) ** float(t)
    return lhs, rhs, lhs <= rhs * (1.0 + MEMBERSHIP_SLACK)


def sample_boundary(balls: Sequence, m: int, k: int, seed: int = 0) -> np.ndarray:
    """A random point on the boundary of the ball intersection (ratio 1).

    Deterministic per seed: a Gaussian direction scaled so the largest
    norm/radius ratio equals one.
    """
    rng = np.random.default_rng(seed)
    while True:
        x = rng.standard_normal((m, k))
        _, ratio = membership(x, balls)
        if ratio > 0:
            return x / ratio
