"""Column-order row reductions and in-place kernels against copies of the code
they replaced: every value and point must match it bit for bit."""

import numpy as np
import pytest

from widthlab import _optim
from widthlab.bodies import InducedBall, LpBall
from widthlab.linalg import _by_column, _unit_rows, as_generator, random_subspace
from widthlab.systems import _in_row_blocks, trig_prefix_system, trig_system

SPECIALS = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, np.inf, -np.inf, np.nan])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _data(shape, seed, specials=True):
    """Normals over 40 decades, a tenth of the entries replaced by specials
    when asked, and a first row of -0 (which NumPy sums to +0)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    if specials:
        flat = a.reshape(-1)
        pick = rng.random(flat.size) < 0.1
        flat[pick] = rng.choice(SPECIALS, pick.sum())
    if a.ndim > 1:
        a.reshape(-1, shape[-1])[0] = -0.0
    return a


# --- copies of the replaced code -------------------------------------------

def _abs_power_old(a, p):
    a = np.abs(a)
    twice = 2.0 * p
    if twice == int(twice) and 0 <= twice <= 17:
        half = int(twice)
        out = np.sqrt(a) if half % 2 else None
        base = a
        acc = None
        k = half // 2
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            base = base * base if k else base
        if out is None:
            return acc if acc is not None else np.ones_like(a)
        return out if acc is None else acc * out
    return a ** p


def _normalize_rows_old(y):
    norms = np.linalg.norm(y, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return y / norms


def _lp_gauge_old(p, pts):
    if np.isinf(p):
        return np.max(np.abs(pts), axis=1)
    if p == 2.0:
        return np.linalg.norm(pts, axis=1)
    if p == 1.0:
        return np.sum(np.abs(pts), axis=1)
    return np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)


def _lp_gauge_grad_old(p, pts):
    g = _lp_gauge_old(p, pts)
    if np.isinf(p):
        idx = np.argmax(np.abs(pts), axis=1)
        grad = np.zeros_like(pts)
        rows = np.arange(len(pts))
        grad[rows, idx] = np.sign(pts[rows, idx])
        return g, grad
    if p == 1.0:
        return g, np.sign(pts)
    if p == 2.0:
        return g, pts / np.maximum(g, 1e-300)[:, None]
    scale = np.maximum(g, 1e-300) ** (p - 1.0)
    return g, np.abs(pts) ** (p - 1.0) * np.sign(pts) / scale[:, None]


def _induced_block_old(system, p, pts):
    vals = system.values
    w = system.quadrature.weights
    f = pts @ vals
    tf = _abs_power_old(np.maximum(np.abs(f), 1e-300), p - 2.0) * f
    g = ((tf * f) @ w) ** (1.0 / p)
    scale = np.maximum(g, 1e-300) ** (p - 1.0)
    return g, ((tf * w) @ vals.T) / scale[:, None]


def _gauge_grad_old(base, maps, y):
    z = y if maps is None else y @ maps
    g, grad = base.gauge_grad_many(z.reshape(-1, z.shape[-1]))
    grad = grad.reshape(z.shape)
    if maps is not None:
        grad = grad @ maps.transpose(0, 2, 1)
    return g.reshape(y.shape[:2]), grad


def _ratio_ascent_old(numerator, denominator, starts, iters=300, num_maps=None,
                      den_maps=None):
    eps = 1e-300
    y = _normalize_rows_old(np.asarray(starts, dtype=float))
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
        gn, grad_n = _gauge_grad_old(numerator, nmaps, y)
        gd, grad_d = _gauge_grad_old(denominator, dmaps, y)
        ratio = gn / np.maximum(gd, eps)
        improved = ratio > best_val
        best_val[improved] = ratio[improved]
        best_y[improved] = y[improved]
        step[ratio < prev] *= 0.5
        prev = ratio
        grad = grad_n / np.maximum(gn, eps)[..., None] - grad_d / np.maximum(gd, eps)[..., None]
        grad -= np.sum(grad * y, axis=-1, keepdims=True) * y
        decay = 1.0 / (1.0 + 3.0 * it / max(iters, 1))
        y = _normalize_rows_old(y + (step * decay)[..., None] * grad)
        new_top = best_val.max(axis=1)
        rose = new_top - top > _optim.STALL_RTOL * np.abs(new_top)
        stall = np.where(rose, 0, stall + 1)
        top = new_top
        done = stall >= _optim.PATIENCE
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
    gd, _ = _gauge_grad_old(denominator, den_maps, top_y[:, None, :])
    return values, top_y / np.maximum(gd, eps)


def _same_grads(got, ref, zero) -> bool:
    """Gauges bit for bit, gradients bit for bit but on the rows ``zero``,
    which must be 0: rows of zero gauge off the closed-form p = 1, 2, inf
    branches, where the replaced code divided by 1e-300^(p-1), 0/0 from p of
    about 2.08 on."""
    return (_same_bits(got[0], ref[0]) and _same_bits(got[1][~zero], ref[1][~zero])
            and bool(np.all(got[1][zero] == 0)))


# --- the tests ---------------------------------------------------------------

SHAPES = [(), (50,), (4, 9)]


@pytest.mark.parametrize("lead", SHAPES, ids=lambda s: f"{len(s) + 1}d")
@pytest.mark.parametrize("n", range(1, 18))
def test_row_sums_match_add_reduce(lead, n):
    a = _data(lead + (n,), seed=n)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _same_bits(_by_column(np.add, a), np.add.reduce(a, axis=-1))
        assert _same_bits(_by_column(np.add, a * a), np.add.reduce(a * a, axis=-1))


@pytest.mark.parametrize("lead", SHAPES, ids=lambda s: f"{len(s) + 1}d")
@pytest.mark.parametrize("n", range(1, 18))
def test_row_maxima_match_max(lead, n):
    a = np.abs(_data(lead + (n,), seed=100 + n))
    assert _same_bits(_by_column(np.maximum, a), np.max(a, axis=-1))


@pytest.mark.parametrize("lead", SHAPES[1:], ids=lambda s: f"{len(s) + 1}d")
@pytest.mark.parametrize("n", range(1, 18))
def test_unit_rows_match_old_normalize(lead, n):
    y = _data(lead + (n,), seed=200 + n, specials=False)
    y.reshape(-1, n)[1] = 0.0
    ref = _normalize_rows_old(y)
    assert _same_bits(_unit_rows(y), ref)
    inplace = y.copy()
    assert _unit_rows(inplace, out=inplace) is inplace and _same_bits(inplace, ref)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 12])
def test_lp_ball_gauges_unchanged(p, n):
    ball = LpBall(n, p)
    for pts in (_data((300, n), seed=n), np.random.default_rng(n).standard_normal((300, n))):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            assert _same_bits(ball.gauge_many(pts), _lp_gauge_old(p, pts))
            got, ref = ball.gauge_grad_many(pts), _lp_gauge_grad_old(p, pts)
        assert _same_grads(got, ref, (got[0] == 0) & (p not in (1.0, 2.0, np.inf)))


@pytest.mark.parametrize("system", [trig_system(1), trig_system(4)], ids=lambda s: s.name)
@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_induced_gauge_grad_unchanged(system, p):
    nodes = len(system.quadrature)
    rows = 3 * max(8, 2**15 // nodes // 8 * 8) + 7  # three blocks and a tail
    pts = np.random.default_rng(5).standard_normal((rows, system.n))
    pts[0] = 0.0  # from p = 3 on the replaced code gives it 0/0: NaN
    pts[1, 1:] = 0.0
    with np.errstate(invalid="ignore"):
        got = InducedBall(system, p).gauge_grad_many(pts)
        ref = _in_row_blocks(lambda b: _induced_block_old(system, p, b), pts, nodes)
    assert got[0][0] == 0.0 and _same_grads(got, ref, got[0] == 0)


def test_ratio_ascent_support_problem_unchanged():
    """``support_values``'s problem form on an induced 1.5-ball, as in Santalo."""
    body = InducedBall(trig_system(1), 1.5)
    rng = as_generator(3)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40 * 3, 3))
    y[::3] = x
    args = (LpBall(1, 1.0), body, y.reshape(40, 3, 3))
    kwargs = dict(iters=150, num_maps=x[:, :, None])
    values, points = _optim.ratio_ascent(*args, **kwargs)
    ref_values, ref_points = _ratio_ascent_old(*args, **kwargs)
    assert _same_bits(values, ref_values) and _same_bits(points, ref_points)


def test_ratio_ascent_mapped_section_radii_unchanged():
    """Section radii of an ellipsoidal induced 4-ball in the induced 1.5-norm,
    every problem with its own frame maps, as in the radius checks."""
    system = trig_prefix_system(5)
    rng = as_generator(8)
    num_maps, den_maps = [], []
    for _ in range(12):
        a = np.diag(np.exp(rng.uniform(-1.0, 1.0, 5)))
        frame = random_subspace(5, 3, rng).frame
        num_maps.append(frame)
        den_maps.append(frame @ np.linalg.inv(a).T)
    starts = rng.standard_normal((12, 16, 3))
    args = (InducedBall(system, 1.5), InducedBall(system, 4.0), starts)
    kwargs = dict(num_maps=np.array(num_maps), den_maps=np.array(den_maps))
    values, points = _optim.ratio_ascent(*args, **kwargs)
    ref_values, ref_points = _ratio_ascent_old(*args, **kwargs)
    assert _same_bits(values, ref_values) and _same_bits(points, ref_points)


class _Counting:
    """A body that counts its gradient-oracle calls."""

    def __init__(self, body):
        self.body, self.dim, self.calls = body, body.dim, 0

    def gauge_grad_many(self, points):
        self.calls += 1
        return self.body.gauge_grad_many(points)


def test_one_dimensional_problems_stop_after_scoring():
    """Codimension-1 sections of the plane, as in the planar Gelfand search:
    1-D iterates are +-1, where the tangent step is exactly 0, so one scoring
    pass gives the looped kernel's values and points bit for bit."""
    system = trig_prefix_system(2)
    rng = as_generator(11)
    frames = _unit_rows(rng.standard_normal((30, 1, 2)))
    starts = rng.standard_normal((30, 12, 1))
    starts[0, 0] = 0.0  # a zero start stays zero
    num, den = _Counting(InducedBall(system, 1.0)), _Counting(InducedBall(system, 4.0))
    values, points = _optim.ratio_ascent(num, den, starts, num_maps=frames, den_maps=frames)
    ref_values, ref_points = _ratio_ascent_old(InducedBall(system, 1.0),
                                               InducedBall(system, 4.0), starts,
                                               num_maps=frames, den_maps=frames)
    assert _same_bits(values, ref_values) and _same_bits(points, ref_points)
    # one gradient call per base body; the denominator's second call is the
    # final scaling to gauge 1 that every ascent makes
    assert (num.calls, den.calls) == (1, 2)


def test_one_dimensional_support_problem_unchanged():
    """``support_values``'s problem form on a 1-D body: the lifted numerator
    |t| is 1-D, and so is every iterate."""
    body = LpBall(1, 3.0)
    x = as_generator(4).standard_normal((25, 1))
    starts = as_generator(5).standard_normal((25, 4, 1))
    args = (LpBall(1, 1.0), body, starts)
    kwargs = dict(num_maps=x[:, :, None])
    values, points = _optim.ratio_ascent(*args, **kwargs)
    ref_values, ref_points = _ratio_ascent_old(*args, **kwargs)
    assert _same_bits(values, ref_values) and _same_bits(points, ref_points)
    assert np.array_equal(values, np.abs(x[:, 0]))
