"""Batched first-order ascent for gauge-ratio maximization.

Everything that needs "maximize one norm over the unit ball of another"
funnels through ``ratio_ascent``: section radii and the inner loops of the
brute-force width searches (support functions and projection gauges are
convex minima, bracketed in ``bodies``).  A problem k maximizes
g_num(y @ N_k) / g_den(y @ D_k) for two base bodies and a linear map each;
every iteration stacks the rows of all live problems into one
``gauge_grad_many`` call per base body.  The objective is 0-homogeneous, so
iterates live on the Euclidean unit sphere.

A row's step is halved whenever its ratio falls; ``MAX_ITERS`` only caps
the passes.  A problem freezes once its best value has not risen by more
than ``STALL_RTOL`` (relative) for ``PATIENCE`` consecutive iterations; on
the radius checks' grid that leaves at most 6.2e-4 (relative, median about
1e-14) below a 3,000-pass ascent, against margins of 0.1 and more.  On
the sphere of R^1 the tangent step is exactly 0, so 1-D problems stop after
their first, scoring pass.  Values returned are achieved values, hence
certified lower bounds on the true maxima.

Rows are a few entries long, so the row norms and the tangent projection
reduce by column in NumPy's order (``linalg._by_column``), each problem
keeps one running maximum (``np.fmax``, which a NaN ratio never replaces),
and each step reuses its gradient buffer; the bits are those of the plain
row-wise expressions.
"""

from __future__ import annotations

import numpy as np

from .linalg import _by_column, _unit_rows

_EPS = 1e-300
MAX_ITERS = 300
STALL_RTOL = 1e-6
PATIENCE = 20


def _gauge_grad(base, maps, y: np.ndarray):
    """Gauges (L, R) and gradients (L, R, d) of y -> base(y @ maps[k])."""
    z = y @ maps
    g, grad = base.gauge_grad_many(z.reshape(-1, z.shape[-1]))
    return g.reshape(y.shape[:2]), grad.reshape(z.shape) @ maps.transpose(0, 2, 1)


def ratio_ascent(numerator, denominator, starts, num_maps, den_maps):
    """Maximize numerator(y @ N_k) / denominator(y @ D_k) for every problem k.

    ``starts`` holds the initial directions (any nonzero length), shape
    (problems, restarts, d); ``num_maps``/``den_maps`` are (problems, d, m)
    stacks.  Returns the best ratio each problem's iterates achieve; no
    local search follows.
    """
    y = _unit_rows(np.asarray(starts, dtype=float))
    n_prob, n_rows, dim = y.shape
    iters = 1 if dim == 1 else MAX_ITERS  # iterates +-1: one scoring pass is all
    values = np.empty(n_prob)

    live = np.arange(n_prob)
    nmaps, dmaps = num_maps, den_maps
    step = np.full((n_prob, n_rows), 0.3)
    prev = np.full((n_prob, n_rows), -np.inf)
    best = np.full(n_prob, -np.inf)
    stall = np.zeros(n_prob, dtype=int)
    for _ in range(iters):
        gn, grad_n = _gauge_grad(numerator, nmaps, y)
        gd, grad_d = _gauge_grad(denominator, dmaps, y)
        ratio = gn / np.maximum(gd, _EPS)
        val = ratio.max(axis=1)
        rose = val - best > STALL_RTOL * np.abs(val)
        np.fmax(best, val, out=best)  # a NaN never replaces the best
        np.multiply(step, 0.5, out=step, where=ratio < prev)
        prev = ratio
        grad = grad_n / np.maximum(gn, _EPS)[..., None]
        grad -= grad_d / np.maximum(gd, _EPS)[..., None]
        grad -= _by_column(np.add, grad * y)[..., None] * y
        grad *= step[..., None]
        grad += y
        y = _unit_rows(grad, out=grad)

        stall = np.where(rose, 0, stall + 1)
        done = stall >= PATIENCE
        if done.any():
            values[live[done]] = best[done]
            keep = ~done
            live, y, step, prev, best, stall, nmaps, dmaps = (a[keep] for a in (
                live, y, step, prev, best, stall, nmaps, dmaps))
            if not live.size:
                break
    values[live] = best
    return values
