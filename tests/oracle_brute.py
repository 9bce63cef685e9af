"""One-frame-at-a-time width search: the exact reference for `mixwidth.oracles`.

This is the heuristic search as it was before the lock-step rewrite: each
restart frame is refined alone, each ascent chain climbs alone, and every
boundary rescaling is its own `membership` call.  It shares with
`numeric_width_estimate` only the candidate points, the start frames, the
linear maximizer and the norms module, so `==` on the estimate for a seed
checks every batched step.
"""

import math

import numpy as np

from mixwidth.oracles import _candidate_points, _linear_maximizer, _subspace_starts
from norms_brute import membership


def _cols_norm(R, m, k, qf, sf):
    """(q, sigma) mixed norm of each column of a stack of flattened matrices."""
    A = np.abs(R).reshape(m, k, -1)
    inner = (A**qf).sum(axis=0) ** (1.0 / qf)
    return (inner**sf).sum(axis=0) ** (1.0 / sf)


def _norm_grad(R, m, k, qf, sf):
    """Gradient of the mixed norm at each column, and the norms themselves."""
    A = R.reshape(m, k, -1)
    X = np.abs(A)
    inner = (X**qf).sum(axis=0) ** (1.0 / qf)
    tot = (inner**sf).sum(axis=0) ** (1.0 / sf)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = (
            np.sign(A)
            * X ** (qf - 1.0)
            * inner[None, :, :] ** (sf - qf)
            * tot[None, None, :] ** (1.0 - sf)
        )
    G = np.where(np.isfinite(G), G, 0.0)
    return G.reshape(R.shape), tot


def _dist_to_span(B, X, m, k, qf, sf, iters):
    """Distance of each column of X to span(B); returns (distances, residuals)."""
    if B.shape[1] == 0:
        R = X.copy()
        return _cols_norm(R, m, k, qf, sf), R
    C = B.T @ X
    R = X - B @ C
    if qf == 2.0 and sf == 2.0:
        return np.sqrt((R * R).sum(axis=0)), R
    f = _cols_norm(R, m, k, qf, sf)
    step = np.full(X.shape[1], 0.5)
    for _ in range(iters):
        G, _ = _norm_grad(R, m, k, qf, sf)
        D = B.T @ G
        gn = (D * D).sum(axis=0)
        Ct = C + step * D
        Rt = X - B @ Ct
        ft = _cols_norm(Rt, m, k, qf, sf)
        ok = ft <= f - 1e-4 * step * gn
        C = np.where(ok, Ct, C)
        R = np.where(ok[None, :], Rt, R)
        f = np.where(ok, ft, f)
        step = np.where(ok, np.minimum(step * 1.25, 4.0), step * 0.5)
    return f, R


def brute_ascend(B, X, dists, balls, m, k, qf, sf, rng, gd_iters, steps=30, starts=6):
    """Sharpen the inner maximum for one frame, one chain after another."""

    def to_boundary(y):
        _, ratio = membership(y.reshape(m, k), balls)
        if not ratio > 0:
            return None
        return y / ratio

    best = float(dists.max())
    for idx in np.argsort(-dists)[:starts]:
        x = X[:, idx].copy()
        d, R = _dist_to_span(B, x[:, None], m, k, qf, sf, gd_iters)
        d, r = float(d[0]), R[:, 0]
        stall = 0
        for t in range(steps):
            g, _ = _norm_grad(r[:, None], m, k, qf, sf)
            g = g[:, 0]
            if not np.any(g):
                g = rng.standard_normal(len(x))
            cands = []
            y = to_boundary(x + 0.5 * 0.9**t * np.linalg.norm(x) * g / np.linalg.norm(g))
            if y is not None:
                cands.append(y)
            y = to_boundary(r)
            if y is not None:
                cands.append(y)
            for b in balls:
                z = to_boundary(b.nu * _linear_maximizer(g, m, k, b.p, b.theta))
                if z is None:
                    continue
                for gamma in (1.0, 0.5, 0.2):
                    y = to_boundary((1.0 - gamma) * x + gamma * z)
                    if y is not None:
                        cands.append(y)
            if not cands:
                break
            Y = np.stack(cands, axis=1)
            dY, RY = _dist_to_span(B, Y, m, k, qf, sf, gd_iters)
            j = int(np.argmax(dY))
            if dY[j] > d * (1.0 + 1e-12):
                d, x, r = float(dY[j]), Y[:, j], RY[:, j]
                stall = 0
            else:
                stall += 1
                if stall >= 4:
                    break
        best = max(best, d)
    return best


def brute_width(balls, m, k, n, q, sigma, restarts, iters, seed):
    """The estimate of `numeric_width_estimate` for n < m*k and a nonzero body."""
    N = m * k
    qf, sf = q.value, sigma.value
    rng = np.random.default_rng(seed)
    X = _candidate_points(balls, m, k, rng)
    Xn = X / float(_cols_norm(X, m, k, qf, sf).max())
    euclid = qf == 2.0 and sf == 2.0
    gd_search = 0 if euclid else 25
    gd_final = 0 if euclid else 120

    decay = (1e-3 / 0.5) ** (1.0 / max(iters - 1, 1))
    scored = []
    for B in _subspace_starts(N, n, restarts, rng):
        f = float(_dist_to_span(B, Xn, m, k, qf, sf, gd_search)[0].max())
        if B.shape[1] > 0:
            eta = 0.5
            for _ in range(iters):
                Q, _ = np.linalg.qr(B + eta * rng.standard_normal(B.shape))
                ft = float(_dist_to_span(Q, Xn, m, k, qf, sf, gd_search)[0].max())
                if ft < f:
                    B, f = Q, ft
                eta *= decay
        scored.append((f, B))
    scored.sort(key=lambda t: t[0])

    finalists = [B for _, B in scored[:3]]
    if n > 0:
        finalists.append(np.eye(N)[:, :n])
    best = math.inf
    for B in finalists:
        d, _ = _dist_to_span(B, X, m, k, qf, sf, gd_final)
        best = min(best, brute_ascend(B, X, d, balls, m, k, qf, sf, rng, gd_final))
    return best
