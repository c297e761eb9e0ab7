"""Batched first-order ascent for gauge-ratio maximization.

Everything that needs "maximize one norm over the unit ball of another"
funnels through ``ratio_ascent``: support functions, section radii and the
inner loops of the brute-force width searches (projection gauges are convex
minima, solved in ``bodies.ProjectionBody``).  A problem k maximizes
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
their first, scoring pass.  Support values have a third stop, on the
duality gap: a caller may pass an upper bound on each problem's maximum,
evaluated on the first pass and every ``GAP_EVERY``-th after, and a problem
freezes once its best value is within ``GAP_RTOL`` (relative) of the lowest
bound seen.  Values returned are achieved values, hence certified lower
bounds on the true maxima.

Rows are a few entries long, so the row norms and the tangent projection
reduce by column in NumPy's order (``linalg._by_column``), each problem
keeps one running best through ``where=`` masks, and each step reuses its
gradient buffer; the bits are those of the plain row-wise expressions.
"""

from __future__ import annotations

import numpy as np

from .linalg import _by_column, _unit_rows, as_generator

_EPS = 1e-300
MAX_ITERS = 300
STALL_RTOL = 1e-6
PATIENCE = 20
GAP_RTOL = 1e-6
GAP_EVERY = 8


def _gauge_grad(base, maps, y: np.ndarray):
    """Gauges (L, R) and gradients (L, R, d) of y -> base(y @ maps[k])."""
    z = y if maps is None else y @ maps
    g, grad = base.gauge_grad_many(z.reshape(-1, z.shape[-1]))
    grad = grad.reshape(z.shape)
    if maps is not None:
        grad = grad @ maps.transpose(0, 2, 1)
    return g.reshape(y.shape[:2]), grad


def ratio_ascent(numerator, denominator, starts, num_maps=None, den_maps=None, _bound=None):
    """Maximize numerator(y @ N_k) / denominator(y @ D_k) for every problem k.

    ``starts`` holds the initial directions (any nonzero length), shape
    (problems, restarts, d); ``num_maps``/``den_maps`` are (problems, d, m)
    stacks or None.  Returns ``(values, points)``: the best achieved ratio of
    each problem and a point where it is achieved, scaled to denominator
    gauge 1.  The value is the best iterate; no local search follows.

    ``_bound(live, y, ratio, grad)``, if given, returns upper bounds on the
    maxima of the problems ``live`` from each one's best row ``y`` of the
    pass, its ratio and the denominator gradient there; the gap stop reads
    their running minimum, and a NaN bound is ignored.
    """
    y = _unit_rows(np.asarray(starts, dtype=float))
    n_prob, n_rows, dim = y.shape
    iters = 1 if dim == 1 else MAX_ITERS  # iterates +-1: one scoring pass is all
    values, points = np.empty(n_prob), np.empty((n_prob, dim))

    live = np.arange(n_prob)
    nmaps, dmaps = num_maps, den_maps
    step = np.full((n_prob, n_rows), 0.3)
    prev = np.full((n_prob, n_rows), -np.inf)
    best = np.full(n_prob, -np.inf)
    best_row = np.zeros(n_prob, dtype=int)
    best_y = y[:, 0].copy()
    upper = np.full(n_prob, np.inf)
    stall = np.zeros(n_prob, dtype=int)
    for it in range(iters):
        gn, grad_n = _gauge_grad(numerator, nmaps, y)
        gd, grad_d = _gauge_grad(denominator, dmaps, y)
        ratio = gn / np.maximum(gd, _EPS)
        rows, pick = np.arange(live.size), np.argmax(ratio, axis=1)
        val = ratio[rows, pick]
        # ties go to the lowest row, and within a row to the earliest pass
        improved = (val > best) | ((val == best) & (pick < best_row))
        rose = val - best > STALL_RTOL * np.abs(val)
        np.copyto(best, val, where=improved)
        np.copyto(best_row, pick, where=improved)
        np.copyto(best_y, y[rows, pick], where=improved[:, None])
        if _bound is not None and it % GAP_EVERY == 0:
            np.fmin(upper, _bound(live, y[rows, pick], val, grad_d[rows, pick]), out=upper)
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
        if _bound is not None:
            done |= upper - best <= GAP_RTOL * best
        if done.any():
            values[live[done]] = best[done]
            points[live[done]] = best_y[done]
            keep = ~done
            live, y, step, prev, best, best_row, best_y, upper, stall = (
                a[keep] for a in (live, y, step, prev, best, best_row, best_y, upper, stall))
            nmaps = None if nmaps is None else nmaps[keep]
            dmaps = None if dmaps is None else dmaps[keep]
            if not live.size:
                break
    values[live] = best
    points[live] = best_y

    gd, _ = _gauge_grad(denominator, den_maps, points[:, None, :])
    return values, points / np.maximum(gd, _EPS)


def support_values(body, targets: np.ndarray, restarts: int, seed):
    """Support function of ``body`` at each target row, by batched ascent.

    Each target x is one problem: maximize |<x, y>| / gauge(y), the
    numerator being the 1-D ball |t| under the map y -> <x, y>.  The target
    direction itself is used as a smart start (exact whenever the body is
    the Euclidean ball).  Returns the values and the maximizers y, scaled
    to gauge 1.

    When ``bodies._support_majorant`` gives a gauge M >= h_K, a problem
    stops on its duality gap.  At a row y of ratio l = |<x, y>| / g_K(y),
    v = grad g_K(y) lies in the polar (Rockafellar, *Convex Analysis*,
    1970), so h_K(l s v) <= l with s = sign <x, y>, and sublinearity gives
    h_K(x) <= l + M(x - l s v).  The values are still achieved ones.
    """
    from .bodies import LpBall, _support_majorant

    x = np.atleast_2d(np.asarray(targets, dtype=float))
    n_samples, dim = x.shape
    r = max(int(restarts), 1)
    rng = as_generator(seed)

    y = rng.standard_normal((n_samples * r, dim))
    y[::r] = x  # smart start on the first restart of each sample
    y[np.linalg.norm(y, axis=1) == 0] = 1.0
    majorant = _support_majorant(body)

    def bound(live, points, ell, v):
        t = x[live]
        side = np.sign(_by_column(np.add, t * points)) * ell
        return ell + majorant.gauge_many(t - side[:, None] * v)

    return ratio_ascent(LpBall(1, 1.0), body, y.reshape(n_samples, r, dim),
                        num_maps=x[:, :, None],
                        _bound=None if majorant is None else bound)
