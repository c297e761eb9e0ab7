"""Batched first-order ascent for gauge-ratio maximization.

Everything that needs "maximize one norm over the unit ball of another"
funnels through ``ratio_ascent``: support functions, section radii,
projection gauges (``offset_minima``), and the inner loops of the
brute-force width searches.  A problem k maximizes
g_num(y @ N_k) / g_den(y @ D_k) for two base bodies and a linear map each
(none is the identity); every iteration stacks the rows of all live
problems into one ``gauge_grad_many`` call per base body.  The objective is
0-homogeneous, so iterates live on the Euclidean unit sphere.

A row's step is halved whenever its ratio falls, and nothing else shapes
it; ``MAX_ITERS`` only caps the passes.  A problem freezes once its best
value has not risen by more than ``STALL_RTOL`` (relative) for ``PATIENCE``
consecutive iterations, judged on that problem's own rows.  On the sphere
of R^1 the tangent step is exactly 0, so 1-D problems (every codimension-1
section in the plane) stop after their first, scoring pass.  Support values
have a third stop, on the duality gap: a caller may pass an upper bound on
each problem's maximum, evaluated on the first pass and every
``GAP_EVERY``-th after, and a problem freezes once its best value is within
``GAP_RTOL`` (relative) of the lowest bound seen.  Nothing refines the
kernel's result afterwards.  Values returned are achieved values, hence
certified lower bounds on the true maxima (and upper bounds on the minima
of ``offset_minima``).

The iteration is NumPy overhead more than arithmetic: rows are a few
entries long, so the row norms and the tangent projection reduce by column
in NumPy's order (``linalg._by_column``), the best-so-far bookkeeping
writes through ``where=`` masks instead of boolean indexing, and each step
reuses its gradient buffer for the next iterate.  The bits are those of the
plain row-wise expressions.
"""

from __future__ import annotations

import numpy as np

from .linalg import _by_column, _unit_rows, as_generator

_EPS = 1e-300
MAX_ITERS = 300
STALL_RTOL = 1e-9
PATIENCE = 60
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
    out_val = np.empty((n_prob, n_rows))
    out_y = np.empty_like(y)

    live = np.arange(n_prob)
    nmaps, dmaps = num_maps, den_maps
    step = np.full((n_prob, n_rows), 0.3)
    best_val = np.full((n_prob, n_rows), -np.inf)
    best_y = y.copy()
    prev = np.full((n_prob, n_rows), -np.inf)
    top = np.full(n_prob, -np.inf)
    upper = np.full(n_prob, np.inf)
    stall = np.zeros(n_prob, dtype=int)
    for it in range(iters):
        gn, grad_n = _gauge_grad(numerator, nmaps, y)
        gd, grad_d = _gauge_grad(denominator, dmaps, y)
        ratio = gn / np.maximum(gd, _EPS)
        improved = ratio > best_val
        np.copyto(best_val, ratio, where=improved)
        np.copyto(best_y, y, where=improved[..., None])
        if _bound is not None and it % GAP_EVERY == 0:
            rows, pick = np.arange(live.size), np.argmax(ratio, axis=1)
            np.fmin(upper, _bound(live, y[rows, pick], ratio[rows, pick],
                                  grad_d[rows, pick]), out=upper)
        np.multiply(step, 0.5, out=step, where=ratio < prev)
        prev = ratio
        grad = grad_n / np.maximum(gn, _EPS)[..., None]
        grad -= grad_d / np.maximum(gd, _EPS)[..., None]
        grad -= _by_column(np.add, grad * y)[..., None] * y
        grad *= step[..., None]
        grad += y
        y = _unit_rows(grad, out=grad)

        new_top = _by_column(np.maximum, best_val)
        rose = new_top - top > STALL_RTOL * np.abs(new_top)
        stall = np.where(rose, 0, stall + 1)
        top = new_top
        done = stall >= PATIENCE
        if _bound is not None:
            done |= upper - top <= GAP_RTOL * top
        if done.any():
            out_val[live[done]] = best_val[done]
            out_y[live[done]] = best_y[done]
            keep = ~done
            live, y, step, best_val, best_y, prev, top, upper, stall = (
                a[keep] for a in (live, y, step, best_val, best_y, prev, top, upper, stall))
            nmaps = None if nmaps is None else nmaps[keep]
            dmaps = None if dmaps is None else dmaps[keep]
            if not live.size:
                break
    out_val[live] = best_val
    out_y[live] = best_y

    pick = np.argmax(out_val, axis=1)
    values = out_val[np.arange(n_prob), pick]
    top_y = out_y[np.arange(n_prob), pick]
    gd, _ = _gauge_grad(denominator, den_maps, top_y[:, None, :])
    return values, top_y / np.maximum(gd, _EPS)


def offset_minima(body, anchors, directions):
    """min over z of gauge(x + z @ D) for every anchor row x, in one ascent call.

    Lifted, its reciprocal is the maximum of |t| / gauge(t x + z D) over
    (t, z): the 1-D ball |t| under the map e_1 over the body under the row's
    map [x; D].  The starts (1, 0) and (1, +-e_j) give each row a problem of
    its own (BLAS may still move its bits by an ulp with the row count).
    Returns the achieved minima (upper bounds on the true ones) and the
    offsets z achieving them.
    """
    from .bodies import LpBall

    x = np.atleast_2d(np.asarray(anchors, dtype=float))
    d = np.asarray(directions, dtype=float)
    k, m = len(x), len(d)
    lift = np.eye(1 + m)
    starts = np.concatenate([lift[:1], lift[:1] + lift[1:], lift[:1] - lift[1:]])
    values, points = ratio_ascent(
        LpBall(1, 1.0), body, np.broadcast_to(starts, (k,) + starts.shape),
        num_maps=np.broadcast_to(lift[:, :1], (k, 1 + m, 1)),
        den_maps=np.concatenate([x[:, None, :], np.broadcast_to(d, (k, m, x.shape[1]))], axis=1))
    return 1.0 / values, points[:, 1:] / points[:, :1]


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
