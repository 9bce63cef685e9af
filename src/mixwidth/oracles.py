"""Independent ground truths for validating the width order estimates.

Two exact classical width formulas cover special cases (the sup-norm ball
and the Euclidean ball), and a seeded two-level heuristic estimates widths
of general ball intersections at desk scale: the outer level minimizes over
n-dimensional subspaces (coordinate and random orthonormal frames refined
by perturbation descent), the inner level maximizes the best-approximation
distance over the body using structured extreme points t*gamma(e_{r,l}),
random boundary samples, and a gradient ascent that rescales back to the
boundary.  The inner maximization can fall short of the true supremum, so
the heuristic value is an upper estimate of the width only up to that
shortfall; it is a consistency oracle, not a certified computation.

The search runs in lock-step.  All restart frames are refined together as
one stack, in blocks of at most SEARCH_CHUNK floats, and all ascent chains
climb as one batch.  Each batched step keeps the memory layout of the
one-frame step it replaces, so numpy adds and rounds in the same order: for
every seed the estimate is bit-identical to the one-frame-at-a-time search
in tests/oracle_brute.py.

Two prunes skip descents that cannot change the estimate.  The search
descends a perturbed frame Q only if `_search_bound` could put it below the
frame it would replace: g - Q Q^T g, for the gradient g at the projection
residual, is orthogonal to span(Q), so by Hoelder its inner product with a
point over its dual (q', sigma') norm is at most the point's distance to the
span, and so at most any value the descent reports (with a slack of 1e-9
relative and 1e-12 absolute for rounding).  The ascent skips the descent of
a chain whose proposals all project to at most its current distance: the
descent only accepts steps that lower a distance, so such a chain cannot
move up, and it counts a failed step.  The Euclidean target has no descent
and is not pruned; at q = 1 or sigma = 1 the dual exponent is inf and the
bound takes the max; a point whose bound is not finite (zero residual, or a
gradient inside the span) bounds nothing.  Rejected frames and chains leave
the stack, but no point leaves a frame, so every descent keeps its shapes
and its rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exponents import Exponent
from .norms import membership, membership_ratios, mixed_norm, sample_boundary
from .witness import GroupElement, group_apply, v_extreme_point, v_inclusion_scale


@dataclass(frozen=True)
class WidthSample:
    """A heuristic width estimate with the budget and seed that produced it."""

    estimate: float
    metadata: dict = field(default_factory=dict)


def exact_width_linf(N: int, n: int, s: Exponent) -> float:
    """Exact n-width of the unit sup-norm ball in l_s^N: (N - n)^(1/s)."""
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    if n == N:
        return 0.0
    return float(N - n) ** float(s.u)


def exact_width_euclidean_ball(N: int, n: int) -> float:
    """Exact n-width of the unit Euclidean ball in Euclidean norm: 1 for n < N."""
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    return 1.0 if n < N else 0.0


def _check_dims(m: int, k: int) -> None:
    if m < 1 or k < 1:
        raise ValueError(f"need m, k >= 1, got m={m}, k={k}")


def sup_norm_over_M(
    balls: Sequence, m: int, k: int, q: Exponent, sigma: Exponent, seed: int = 0
) -> float:
    """Largest (q, sigma) norm over the ball intersection (the 0-width).

    Closed form for a single ball; for intersections, a lower estimate from
    the structured points t*e_{r,l} over the full (r, l) grid plus 64 random
    boundary samples.
    """
    _check_dims(m, k)
    uq, vs = float(q.u), float(sigma.u)
    if len(balls) == 1:
        b = balls[0]
        return b.nu * m ** max(0.0, uq - float(b.p.u)) * k ** max(
            0.0, vs - float(b.theta.u)
        )
    best = 0.0
    for r in range(1, m + 1):
        for l in range(1, k + 1):
            best = max(best, v_inclusion_scale(balls, r, l) * r**uq * l**vs)
    for i in range(64):
        x = sample_boundary(balls, m, k, seed=seed + i)
        best = max(best, mixed_norm(x, q, sigma))
    return best


# ---------------------------------------------------------------------------
# heuristic width estimate
# ---------------------------------------------------------------------------

# Restart frames refined at a time: a block's residuals hold at most
# SEARCH_CHUNK floats (or one frame's worth), and its perturbations iters
# frames per restart, whatever the number of restarts.
SEARCH_CHUNK = 1 << 14
# Ascent: chains per finalist frame, steps per chain, failed steps that end
# a chain, and the conditional-gradient step sizes toward a maximizer.
_STARTS, _STEPS, _STALL = 6, 30, 4
_GAMMAS = np.array([1.0, 0.5, 0.2])[:, None]


def _pnorm(A: np.ndarray, p: float, axis: int) -> np.ndarray:
    """l_p norm of the nonnegative A along axis, for p in [1, inf]."""
    if p == math.inf:
        return A.max(axis=axis)
    return (A**p).sum(axis=axis) ** (1.0 / p)


def _dual(p: float) -> float:
    """The conjugate exponent p' with 1/p + 1/p' = 1."""
    return p / (p - 1.0) if p > 1.0 else math.inf


def _norms(R: np.ndarray, m: int, k: int, qf: float, sf: float):
    """Inner column norms (..., k, c) and the (q, sigma) norm (..., c) of each
    column of a stack of flattened m x k matrices R (..., m*k, c)."""
    A = np.abs(R).reshape(R.shape[:-2] + (m, k, R.shape[-1]))
    inner = _pnorm(A, qf, -3)
    return inner, _pnorm(inner, sf, -2)


def _grad(R, inner, tot, m: int, k: int, qf: float, sf: float) -> np.ndarray:
    """Gradient of the mixed norm at each column of R, given `_norms(R)`.

    Zero residual entries make 0/0 and 0*inf, which become 0; callers run
    it under np.errstate(divide="ignore", invalid="ignore").
    """
    shape = R.shape[:-2] + (m, k, R.shape[-1])
    G = np.sign(R).reshape(shape) * np.abs(R).reshape(shape) ** (qf - 1.0)
    G *= inner[..., None, :, :] ** (sf - qf)
    G *= tot[..., None, None, :] ** (1.0 - sf)
    G[~np.isfinite(G)] = 0.0
    return G.reshape(R.shape)


def _project(B: np.ndarray, X: np.ndarray, m: int, k: int, qf: float, sf: float):
    """Euclidean projection of each column of X onto span(B), per frame.

    B is a stack of orthonormal frames (b, N, n) with n > 0; X is (N, c),
    shared, or (b, N, c).  Returns the coefficients C (b, n, c), the
    residuals R (b, N, c), R's inner column norms (None for the Euclidean
    target) and R's distances f (b, c).
    """
    C = B.transpose(0, 2, 1) @ X
    R = X - B @ C
    if qf == 2.0 and sf == 2.0:
        return C, R, None, np.sqrt((R * R).sum(axis=1))
    return (C, R, *_norms(R, m, k, qf, sf))


def _descend(B, X, C, R, inner, f, m, k, qf, sf, iters, G=None):
    """Monotone batched descent on the coefficients from a projection.

    (C, R, inner, f) is `_project(B, X)`, and G, if given, the gradient at R.
    A step is accepted only where it lowers f, so no distance ever rises
    above the projection's; the gradient reuses the norms of the accepted
    trial.  Updates C, R, inner and f in place and returns (f, R).
    """
    Bt = B.transpose(0, 2, 1)
    step = np.full(f.shape, 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(iters):
            if i or G is None:
                G = _grad(R, inner, f, m, k, qf, sf)
            D = Bt @ G  # steepest descent is +D
            gn = (D * D).sum(axis=1)
            Ct = C + step[:, None, :] * D
            Rt = X - B @ Ct
            inner_t, ft = _norms(Rt, m, k, qf, sf)
            ok = ft <= f - 1e-4 * step * gn
            col = ok[:, None, :]
            np.copyto(C, Ct, where=col)
            np.copyto(R, Rt, where=col)
            np.copyto(inner, inner_t, where=col)
            np.copyto(f, ft, where=ok)
            step = np.where(ok, np.minimum(step * 1.25, 4.0), step * 0.5)
    return f, R


def _dist_to_span(
    B: np.ndarray, X: np.ndarray, m: int, k: int, qf: float, sf: float, iters: int
):
    """Distance of each column of X to span(B) in the mixed norm, per frame.

    B is a stack of frames (b, N, n); X is (N, c), shared, or (b, N, c).
    Exact for the Euclidean case; otherwise `_descend` from the Euclidean
    projection, so the returned values never undershoot the true distances.
    Returns (distances (b, c), residuals (b, N, c)).
    """
    if B.shape[2] == 0:
        R = np.broadcast_to(X, B.shape[:2] + X.shape[-1:]).copy()
        return _norms(R, m, k, qf, sf)[1], R
    C, R, inner, f = _project(B, X, m, k, qf, sf)
    if inner is None:
        return f, R
    return _descend(B, X, C, R, inner, f, m, k, qf, sf, iters)


def _search_bound(Q, X, G, m, k, qf, sf) -> np.ndarray:
    """Lower bound on the largest distance of the columns of X to span(Q[i]).

    G is the gradient at the projection residuals.  H = G - Q Q^T G is
    orthogonal to span(Q), so <x - v, H> = <x, H> for every v in the span,
    and by Hoelder <x, H> / ||H||_* (the dual (q', sigma') norm) is at most
    the distance of x to the span; the descent reports the norm of some
    x - Qc, which is no smaller.  Columns whose ratio is not finite (zero
    residual or H = 0) bound nothing, and a frame with no finite ratio gets
    -inf.
    """
    H = G - Q @ (Q.transpose(0, 2, 1) @ G)
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = (X * H).sum(axis=1) / _norms(H, m, k, _dual(qf), _dual(sf))[1]
    return np.where(np.isfinite(lb), lb, -np.inf).max(axis=1)


def _search_dists(Q, X, fb, m, k, qf, sf, iters) -> np.ndarray:
    """Largest distance of the columns of X to each span(Q[i]), or inf for a
    frame that `_search_bound` shows cannot come below fb[i].

    Only rejected frames are dropped from the stack, never columns, so each
    descended frame keeps the shapes, and the rounding, of a full descent.
    """
    if iters == 0:
        return _dist_to_span(Q, X, m, k, qf, sf, 0)[0].max(axis=1)
    C, R, inner, f = _project(Q, X, m, k, qf, sf)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = _grad(R, inner, f, m, k, qf, sf)
    lb = _search_bound(Q, X, G, m, k, qf, sf)
    go = np.flatnonzero(lb * (1.0 - 1e-9) - 1e-12 < fb)
    ft = np.full(len(Q), np.inf)
    if go.size:
        sub = (C[go], R[go], inner[go], f[go])
        ft[go] = _descend(Q[go], X, *sub, m, k, qf, sf, iters, G[go])[0].max(axis=1)
    return ft


def _candidate_points(
    balls: Sequence, m: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Structured near-extreme points, 16 random sign patterns scaled onto the
    boundary and 32 random boundary samples, flattened."""
    pts = []
    for r in range(1, m + 1):
        for l in range(1, k + 1):
            t = v_inclusion_scale(balls, r, l)
            e = v_extreme_point(m, k, r, l)
            pts.append(t * e)
            for _ in range(2):
                g = GroupElement.random(m, k, rng)
                pts.append(t * group_apply(g, e))
    for _ in range(16):
        s = rng.choice((-1.0, 1.0), size=(m, k))
        _, ratio = membership(s, balls)
        pts.append(s / ratio)
    for _ in range(32):
        pts.append(sample_boundary(balls, m, k, seed=int(rng.integers(0, 2**31))))
    return np.stack([p.reshape(-1) for p in pts], axis=1)


def _linear_maximizer(g: np.ndarray, m: int, k: int, p, theta) -> np.ndarray:
    """argmax of <z, g> over the unit (p, theta) ball (a dual-norm extreme point)."""
    G = g.reshape(m, k)
    A = np.abs(G)
    # inner maximizers per column and their values c_j (the dual column norms)
    if p.u == 1:  # p = 1: concentrate on the largest row
        a = np.zeros_like(G)
        rows = A.argmax(axis=0)
        cols = np.arange(k)
        a[rows, cols] = np.sign(G[rows, cols])
        c = A.max(axis=0)
    elif p.u == 0:  # p = inf: a sign vector
        a = np.sign(G)
        c = A.sum(axis=0)
    else:
        pd = _dual(1.0 / float(p.u))
        c = _pnorm(A, pd, 0)
        a = np.zeros_like(G)
        nz = c > 0
        a[:, nz] = np.sign(G[:, nz]) * (A[:, nz] / c[nz]) ** (pd - 1.0)
    # outer weights s with ||s||_theta = 1 maximizing <s, c>
    if theta.u == 1:
        s = np.zeros(k)
        s[c.argmax()] = 1.0
    elif theta.u == 0:
        s = np.ones(k)
    else:
        td = _dual(1.0 / float(theta.u))
        cd = _pnorm(c, td, 0)
        s = (c / cd) ** (td - 1.0) if cd > 0 else np.zeros(k)
    return (a * s[None, :]).reshape(-1)


def _subspace_starts(
    N: int, n: int, restarts: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Coordinate-subspace seeds first, then random orthonormal frames."""
    if n == 0:
        return [np.zeros((N, 0))]
    eye = np.eye(N)
    starts = [eye[:, :n].copy()]
    for _ in range(min(restarts // 2, 16) - 1):
        idx = np.sort(rng.permutation(N)[:n])
        starts.append(eye[:, idx].copy())
    while len(starts) < restarts:
        Q, _ = np.linalg.qr(rng.standard_normal((N, n)))
        starts.append(Q)
    return starts[:restarts]


def _search(starts, Xn, iters, rng, m, k, qf, sf, gd_iters):
    """Refine each start frame by perturbation descent; returns (f, frames).

    f is each frame's largest distance to the normalized points Xn.  The
    restarts advance in lock-step, in blocks of at most SEARCH_CHUNK
    residual floats.  Each block draws its perturbations in one call,
    restart by restart, which is the order the per-frame loop drew them in.
    """
    S = np.stack(starts)
    N, n = S.shape[1:]
    if n == 0:
        return _dist_to_span(S, Xn, m, k, qf, sf, gd_iters)[0].max(axis=1), S
    decay = (1e-3 / 0.5) ** (1.0 / max(iters - 1, 1))
    block = max(1, SEARCH_CHUNK // Xn.size)
    f = np.empty(len(S))
    for lo in range(0, len(S), block):
        B = S[lo : lo + block]
        fb = _dist_to_span(B, Xn, m, k, qf, sf, gd_iters)[0].max(axis=1)
        eta = 0.5
        for Pt in rng.standard_normal((len(B), iters, N, n)).transpose(1, 0, 2, 3):
            Q, _ = np.linalg.qr(B + eta * Pt)
            ft = _search_dists(Q, Xn, fb, m, k, qf, sf, gd_iters)
            better = ft < fb
            B = np.where(better[:, None, None], Q, B)
            fb = np.where(better, ft, fb)
            eta *= decay
        S[lo : lo + block], f[lo : lo + block] = B, fb
    return f, S


def _l2(V: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, through the same dot product."""
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _to_boundary(V: np.ndarray, balls: Sequence, m: int, k: int):
    """Rows of V (..., m*k) scaled onto the boundary, and where that worked."""
    ratio = membership_ratios(V.reshape(-1, m, k), balls).reshape(V.shape[:-1])
    ok = ratio > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return V / ratio[..., None], ok


def _climb(B, x, r, d, stall, t0, balls, m, k, qf, sf, rng, gd_iters):
    """Run ascent chains from step t0 in lock-step; returns their final distances.

    Chain i climbs from the boundary point x[i], with residual r[i] and
    distance d[i] to span(B[i]).  Each step proposes a gradient move, a
    jump along the residual direction, and conditional-gradient moves toward
    each ball's linear maximizer of the distance gradient; proposals are
    rescaled to the boundary and the best improvement is kept.  A chain
    ends after _STEPS steps, _STALL failed steps in a row, or a step with
    no proposal.  A chain whose gradient vanishes moves along a random
    direction instead, the only draw from rng: once one is due, the batch
    draws nothing and runs each live chain alone, in order.
    """
    x, r, d, stall = x.copy(), r.copy(), d.copy(), stall.copy()
    live = np.arange(len(d))
    N = x.shape[1]
    for t in range(t0, _STEPS):
        if live.size == 0:
            break
        R = r[live, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = _grad(R, *_norms(R, m, k, qf, sf), m, k, qf, sf)[:, :, 0]
        if not g.any(axis=1).all():
            if live.size > 1:
                for i in live:
                    one = slice(i, i + 1)
                    d[i] = _climb(
                        B[one], x[one], r[one], d[one], stall[one], t,
                        balls, m, k, qf, sf, rng, gd_iters,
                    )[0]
                return d
            g[0] = rng.standard_normal(N)
        xs, L = x[live], live.size
        move = xs + 0.5 * 0.9**t * _l2(xs)[:, None] * g / _l2(g)[:, None]
        lin = [
            [b.nu * _linear_maximizer(gi, m, k, b.p, b.theta) for b in balls] for gi in g
        ]
        V, ok = _to_boundary(
            np.concatenate([move[:, None], r[live, None], np.array(lin)], axis=1),
            balls, m, k,
        )
        # (1 - gamma) x + gamma z toward each maximizer z that reached the boundary
        W = (1.0 - _GAMMAS) * xs[:, None, None] + _GAMMAS * V[:, 2:, None]
        W_ok = np.zeros(W.shape[:3], dtype=bool)
        W[ok[:, 2:]], W_ok[ok[:, 2:]] = _to_boundary(W[ok[:, 2:]], balls, m, k)
        P = np.concatenate([V[:, :2], W.reshape(L, -1, N)], axis=1)
        valid = np.concatenate([ok[:, :2], W_ok.reshape(L, -1)], axis=1)
        count = valid.sum(axis=1)
        for c in sorted(set(count[count > 0].tolist())):
            sel = np.flatnonzero(count == c)
            ch = live[sel]
            Y = P[sel][valid[sel]].reshape(-1, c, N).transpose(0, 2, 1).copy()
            Bc = B[ch]
            C, RY, inner, dY = _project(Bc, Y, m, k, qf, sf)
            # The descent never raises a distance above the projection's, so
            # a chain whose proposals all start at most at d cannot move up:
            # it stalls without a descent.
            go = np.flatnonzero(dY.max(axis=1) > d[ch] * (1.0 + 1e-12))
            if inner is not None and go.size:
                sub = (C[go], RY[go], inner[go], dY[go])
                dY[go], RY[go] = _descend(Bc[go], Y[go], *sub, m, k, qf, sf, gd_iters)
            rows, j = np.arange(len(sel)), dY.argmax(axis=1)
            top = dY[rows, j]
            up = top > d[ch] * (1.0 + 1e-12)
            d[ch[up]], x[ch[up]], r[ch[up]] = top[up], Y[rows, :, j][up], RY[rows, :, j][up]
            stall[ch] = np.where(up, 0, stall[ch] + 1)
        live = live[(count > 0) & (stall[live] < _STALL)]
    return d


def _ascend(Bs, X, dists, balls, m, k, qf, sf, rng, gd_iters) -> list[float]:
    """Sharpen the inner maximum of each frame by ascent that stays on the boundary.

    Each frame Bs[f] starts _STARTS chains at the points of X farthest from
    its span (dists[f]); all chains climb together, frame by frame and
    start by start.  Returns the best distance found for each frame.
    """
    tops = [np.argsort(-dist)[:_STARTS] for dist in dists]
    frame = np.repeat(np.arange(len(Bs)), [len(top) for top in tops])
    x = X[:, np.concatenate(tops)].T.copy()
    B = Bs[frame]
    d, R = _dist_to_span(B, x[:, :, None], m, k, qf, sf, gd_iters)
    stall = np.zeros(len(x), dtype=int)
    d = _climb(B, x, R[:, :, 0], d[:, 0], stall, 0, balls, m, k, qf, sf, rng, gd_iters)
    values = []
    for f, dist in enumerate(dists):
        best = float(dist.max())
        for value in d[frame == f].tolist():
            best = max(best, value)
        values.append(best)
    return values


def numeric_width_estimate(
    balls: Sequence,
    m: int,
    k: int,
    n: int,
    q: Exponent,
    sigma: Exponent,
    restarts: int = 64,
    iters: int = 200,
    seed: int = 0,
) -> WidthSample:
    """Seeded heuristic estimate of the n-width of the intersection (desk scale).

    Documented bias: the reported value is the sharpened inner maximum for
    the best subspace found, which lower-bounds the supremum over the body
    for that subspace; as an estimate of the width it errs upward only by
    the outer search and downward only by the inner-maximization shortfall.
    """
    if restarts <= 0 or iters <= 0:
        raise ValueError("budget parameters must be positive")
    _check_dims(m, k)
    N = m * k
    if N > 16:
        raise ValueError(f"desk scale only: m*k <= 16, got {N}")
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= m*k, got n={n}")
    if not balls:
        raise ValueError("need a nonempty ball family")
    qf, sf = q.value, sigma.value
    if not (math.isfinite(qf) and math.isfinite(sf)):
        raise ValueError("q and sigma must be finite")
    meta = {"restarts": restarts, "iterations": iters, "seed": seed}
    if n == N:
        return WidthSample(0.0, meta)

    rng = np.random.default_rng(seed)
    X = _candidate_points(balls, m, k, rng)
    s0 = float(_norms(X, m, k, qf, sf)[1].max())
    if s0 == 0.0:
        return WidthSample(0.0, meta)
    Xn = X / s0  # normalized copy keeps the search scale-equivariant

    euclid = qf == 2.0 and sf == 2.0
    gd_search = 0 if euclid else 25
    gd_final = 0 if euclid else 120

    f, frames = _search(
        _subspace_starts(N, n, restarts, rng), Xn, iters, rng, m, k, qf, sf, gd_search
    )
    order = sorted(range(len(f)), key=f.tolist().__getitem__)
    finalists = [frames[i] for i in order[:3]]
    if n > 0:
        finalists.append(np.eye(N)[:, :n])  # coordinate frame, always re-checked
    Bs = np.stack(finalists)
    d, _ = _dist_to_span(Bs, X, m, k, qf, sf, gd_final)
    best = math.inf
    for value in _ascend(Bs, X, d, balls, m, k, qf, sf, rng, gd_final):
        best = min(best, value)
    return WidthSample(best, meta)
