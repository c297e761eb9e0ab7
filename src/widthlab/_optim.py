"""Batched first-order ascent for gauge-ratio maximization.

Everything that needs "maximize one norm over the unit ball of another"
funnels through ``ratio_ascent``: support functions, section radii, and the
inner loops of the brute-force width searches.  A problem k maximizes
g_num(y @ N_k) / g_den(y @ D_k) for two base bodies and a linear map each
(none is the identity); every iteration stacks the rows of all live
problems into one ``gauge_grad_many`` call per base body.  The objective is
0-homogeneous, so iterates live on the Euclidean unit sphere.

``iters`` is a cap: a problem freezes once its best value has not risen by
more than ``STALL_RTOL`` (relative) for ``PATIENCE`` consecutive
iterations, judged on that problem's own rows.  Values returned are
achieved values, hence certified lower bounds on the true maxima; every
caller uses them in the direction where that is safe.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .linalg import as_generator

_EPS = 1e-300
STALL_RTOL = 1e-9
PATIENCE = 60


def _normalize_rows(y: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(y, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return y / norms


def _gauge_grad(base, maps, y: np.ndarray):
    """Gauges (L, R) and gradients (L, R, d) of y -> base(y @ maps[k])."""
    z = y if maps is None else y @ maps
    g, grad = base.gauge_grad_many(z.reshape(-1, z.shape[-1]))
    grad = grad.reshape(z.shape)
    if maps is not None:
        grad = grad @ maps.transpose(0, 2, 1)
    return g.reshape(y.shape[:2]), grad


def ratio_ascent(numerator, denominator, starts, iters: int = 300,
                 num_maps=None, den_maps=None, polish: bool = False):
    """Maximize numerator(y @ N_k) / denominator(y @ D_k) for every problem k.

    ``starts`` holds the initial directions (any nonzero length), shape
    (problems, restarts, d); ``num_maps``/``den_maps`` are (problems, d, m)
    stacks or None.  Returns ``(values, points)``: the best achieved ratio of
    each problem and a point where it is achieved, scaled to denominator
    gauge 1.  ``polish`` refines the three best restarts of each problem by
    Nelder-Mead.
    """
    y = _normalize_rows(np.asarray(starts, dtype=float))
    n_prob, n_rows, _ = y.shape
    out_val = np.empty((n_prob, n_rows))
    out_y = np.empty_like(y)

    live = np.arange(n_prob)
    nmaps, dmaps = num_maps, den_maps
    step = np.full((n_prob, n_rows), 0.3)
    best_val = np.full((n_prob, n_rows), -np.inf)
    best_y = y.copy()
    prev = np.full((n_prob, n_rows), -np.inf)
    top = np.full(n_prob, -np.inf)
    stall = np.zeros(n_prob, dtype=int)
    for it in range(iters):
        gn, grad_n = _gauge_grad(numerator, nmaps, y)
        gd, grad_d = _gauge_grad(denominator, dmaps, y)
        ratio = gn / np.maximum(gd, _EPS)
        improved = ratio > best_val
        best_val[improved] = ratio[improved]
        best_y[improved] = y[improved]
        step[ratio < prev] *= 0.5
        prev = ratio
        grad = grad_n / np.maximum(gn, _EPS)[..., None] - grad_d / np.maximum(gd, _EPS)[..., None]
        grad -= np.sum(grad * y, axis=-1, keepdims=True) * y
        decay = 1.0 / (1.0 + 3.0 * it / max(iters, 1))
        y = _normalize_rows(y + (step * decay)[..., None] * grad)

        new_top = best_val.max(axis=1)
        rose = new_top - top > STALL_RTOL * np.abs(new_top)
        stall = np.where(rose, 0, stall + 1)
        top = new_top
        done = stall >= PATIENCE
        if done.any():
            out_val[live[done]] = best_val[done]
            out_y[live[done]] = best_y[done]
            keep = ~done
            live, y, step, best_val, best_y, prev, top, stall = (
                a[keep] for a in (live, y, step, best_val, best_y, prev, top, stall))
            nmaps = None if nmaps is None else nmaps[keep]
            dmaps = None if dmaps is None else dmaps[keep]
            if not live.size:
                break
    out_val[live] = best_val
    out_y[live] = best_y

    pick = np.argmax(out_val, axis=1)
    values = out_val[np.arange(n_prob), pick]
    top_y = out_y[np.arange(n_prob), pick]
    if polish:
        for k in range(n_prob):
            nk = None if num_maps is None else num_maps[k:k + 1]
            dk = None if den_maps is None else den_maps[k:k + 1]

            def neg_log_ratio(v):
                v = np.asarray(v, dtype=float)[None, None, :]
                gn, _ = _gauge_grad(numerator, nk, v)
                gd, _ = _gauge_grad(denominator, dk, v)
                if gn[0, 0] <= 0 or gd[0, 0] <= 0:
                    return np.inf
                return -np.log(gn[0, 0] / gd[0, 0])

            for idx in np.argsort(out_val[k])[::-1][:3]:
                res = minimize(neg_log_ratio, out_y[k, idx], method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-12,
                                        "maxiter": 400 * y.shape[-1]})
                if np.isfinite(res.fun) and -res.fun > np.log(max(values[k], _EPS)):
                    values[k] = float(np.exp(-res.fun))
                    top_y[k] = res.x

    gd, _ = _gauge_grad(denominator, den_maps, top_y[:, None, :])
    return values, top_y / np.maximum(gd, _EPS)


def support_values(body, targets: np.ndarray, restarts: int = 6,
                   iters: int = 350, seed=0) -> np.ndarray:
    """Support function of ``body`` at each target row, by batched ascent.

    Each target x is one problem: maximize |<x, y>| / gauge(y), the
    numerator being the 1-D ball |t| under the map y -> <x, y>.  The target
    direction itself is used as a smart start (exact whenever the body is
    the Euclidean ball).
    """
    from .bodies import LpBall

    x = np.atleast_2d(np.asarray(targets, dtype=float))
    n_samples, dim = x.shape
    r = max(int(restarts), 1)
    rng = as_generator(seed)

    y = rng.standard_normal((n_samples * r, dim))
    y[::r] = x  # smart start on the first restart of each sample
    y[np.linalg.norm(y, axis=1) == 0] = 1.0
    values, _ = ratio_ascent(LpBall(1, 1.0), body, y.reshape(n_samples, r, dim),
                             iters=iters, num_maps=x[:, :, None])
    return values
