"""Column-order row reductions, in-place kernels, the shared sphere draw and
mean, the held sphere stream and the shared net traversal against copies of
the code they replaced: every value and point must match it bit for bit, and
a sample mean's half width a two-pass variance to 1e-12 relative."""

import math

import numpy as np
import pytest

from widthlab import _optim, stochastic, widths
from widthlab.bodies import InducedBall, LpBall, euclidean_ball
from widthlab.linalg import _by_column, _unit_rows, as_generator, random_subspace
from widthlab.stochastic import (_CHUNK, _NET_CERTIFICATE_SAMPLES, _Z95, EstimateWithCI,
                                 _body_cloud, _sphere_chunks,
                                 _stream, expectation_norm, greedy_nets,
                                 mc_volume_ratio)
from widthlab.systems import (_in_row_blocks, _lp_norms, _power_in_place,
                              sphere_harmonics_system, trig_prefix_system, trig_system)

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


def _lp_norm_block_old(f, w, p):
    """``OrthonormalSystem._lp_norm_block`` from its node values f = coeffs @ values."""
    if np.isinf(p):
        return np.max(np.abs(f), axis=-1)
    if p == 2.0:
        return np.sqrt((f * f) @ w)
    return (_power_in_place(np.abs(f, out=f), p) @ w) ** (1.0 / p)


def _lp_norms_old(v, w, p):
    """``bodies._lp_norms``, the polar and IRLS norm."""
    if np.isinf(p):
        return np.max(np.abs(v), axis=1)
    return (_power_in_place(np.abs(v), p) @ w) ** (1.0 / p)


def _induced_block_old(system, p, pts):
    vals = system.values
    w = system.weights
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
    for _ in range(iters):
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
        y = _normalize_rows_old(y + step[..., None] * grad)
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


def _sphere_chunks_old(rng, n, total):
    done = 0
    while done < total:
        take = min(_CHUNK, total - done)
        g = rng.standard_normal((take, n))
        yield _unit_rows(g, out=g)
        done += take


def _centred_estimate(s1, values):
    """The replaced code's mean from its running sum ``s1``, with the half
    width of a two-pass variance of all ``values``."""
    values = np.concatenate(values)
    half = _Z95 * math.sqrt(np.var(values) / len(values))
    return EstimateWithCI(s1 / len(values), half, len(values))


def _expectation_norm_old(body, samples, seed):
    s1, values = 0.0, []
    for chunk in _sphere_chunks_old(_stream(seed), body.dim, samples):
        g = body.gauge_many(chunk)
        s1 += float(g.sum())
        values.append(g)
    return _centred_estimate(s1, values)


def _greedy_net_old(body, reference_gauge, delta, seed):
    rng = as_generator(seed)
    cloud = _body_cloud(body, int(min(65536, max(8192, 4000 * 4**body.dim))), rng)
    selected = [cloud[0]]
    dist = reference_gauge.gauge_many(cloud - cloud[0])
    while True:
        idx = int(np.argmax(dist))
        if dist[idx] < delta:
            break
        selected.append(cloud[idx])
        np.minimum(dist, reference_gauge.gauge_many(cloud - cloud[idx]), out=dist)
    points = np.array(selected)
    fresh = _body_cloud(body, _NET_CERTIFICATE_SAMPLES, as_generator(rng.integers(2**63)))
    mind = np.full(len(fresh), np.inf)
    for p in points:
        np.minimum(mind, reference_gauge.gauge_many(fresh - p), out=mind)
    coverage = float(np.mean(mind <= delta + 1e-12))
    return points, coverage >= 0.999, coverage


def _same_estimate(got, ref) -> bool:
    return (_same_bits([got.value, got.half_width], [ref.value, ref.half_width])
            and got.samples == ref.samples)


def _same_value(got, ref) -> bool:
    """The value bit for bit, the half width within 1e-12 relative."""
    return (_same_bits(got.value, ref.value) and got.samples == ref.samples
            and math.isclose(got.half_width, ref.half_width, rel_tol=1e-12, abs_tol=0.0))


def _same_grads(got, ref, zero) -> bool:
    """Gauges bit for bit, gradients bit for bit but on the rows ``zero``,
    which must be 0: rows of zero gauge off the closed-form p = 1, 2, inf
    branches, where the replaced code divided by 1e-300^(p-1), 0/0 from p of
    about 2.08 on."""
    return (_same_bits(got[0], ref[0]) and _same_bits(got[1][~zero], ref[1][~zero])
            and bool(np.all(got[1][zero] == 0)))


def _radius_ratio_samples_old(kind, seeds, dims, ps, qs, subspaces, restarts):
    """``widths.radius_ratio_samples`` with one ``random_subspace`` per problem."""
    cells = [(n, p, q) for n in dims for p in ps for q in (qs if kind == "lq" else (None,))]
    ratios = np.empty((len(seeds), len(cells), subspaces))
    for c, (n, p, q) in enumerate(cells):
        system = trig_prefix_system(n)
        r = math.ceil(2 * n / 3) if kind == "l1" else math.ceil(n / 2)
        factors, num_maps, den_maps, starts = [], [], [], []
        for seed in seeds:
            rng = as_generator([seed, n, int(p * 4), 0 if q is None else int(q * 4)])
            a = widths._trial_matrix(rng, n)
            if kind == "l1":
                factors.append(widths.l1_section_radius_bound(a, system, p))
            else:
                factors.append(widths.lq_section_radius_bound(a, system, p, q, r))
            inv_t = np.linalg.inv(a).T
            for _ in range(subspaces):
                frame = random_subspace(n, r, rng).frame
                num_maps.append(frame)
                den_maps.append(frame @ inv_t)
                starts.append(as_generator(rng.integers(2**31)).standard_normal((restarts, r)))
        gauge = InducedBall(system, 1.0 if q is None else q)
        radii = _optim.ratio_ascent(gauge, InducedBall(system, p), np.array(starts),
                                    num_maps=np.array(num_maps), den_maps=np.array(den_maps))
        ratios[:, c, :] = radii.reshape(len(seeds), subspaces) / np.array(factors)[:, None]
    return ratios.ravel().tolist()


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


#: the induced 2-ball runs through its Gram factor, not the node kernel: its
#: gauges match the replaced code to 4 eps relative and its gradients, whose
#: entries are at most about 1, to 8 eps (measured at most 2.1 and 4.5 eps)
TWO_BALL_RTOL = 4 * np.finfo(float).eps
TWO_BALL_ATOL = 8 * np.finfo(float).eps


@pytest.mark.parametrize("system", [trig_system(1), trig_system(4)], ids=lambda s: s.name)
@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_induced_gauge_grad_unchanged(system, p):
    nodes = len(system.weights)
    rows = 3 * max(8, 2**15 // nodes // 8 * 8) + 7  # three blocks and a tail
    pts = np.random.default_rng(5).standard_normal((rows, system.n))
    pts[0] = 0.0  # from p = 3 on the replaced code gives it 0/0: NaN
    pts[1, 1:] = 0.0
    with np.errstate(invalid="ignore"):
        got = InducedBall(system, p).gauge_grad_many(pts)
        ref = _in_row_blocks(lambda b: _induced_block_old(system, p, b), pts, nodes)
    assert got[0][0] == 0.0
    if p == 2.0:
        assert np.all(got[1][0] == 0.0)
        np.testing.assert_allclose(got[0], ref[0], rtol=TWO_BALL_RTOL)
        np.testing.assert_allclose(got[1], ref[1], rtol=0, atol=TWO_BALL_ATOL)
    else:
        assert _same_grads(got, ref, got[0] == 0)


NORM_SYSTEMS = [trig_system(4), sphere_harmonics_system(3)]
NORM_PS = [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, np.inf]


@pytest.mark.parametrize("system", NORM_SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("p", NORM_PS)
def test_lp_norm_kernel_matches_both_replaced(system, p):
    """One kernel for the system norms and the polar and IRLS norms: at p = 2
    without the square-root path, on node values over 40 decades, rows with
    special values, and zero rows."""
    nodes = len(system.weights)
    f = np.concatenate([_data((300, nodes), seed=nodes, specials=False),
                        _data((40, nodes), seed=nodes + 1)])
    f[[7, 100]] = 0.0
    w = system.weights
    with np.errstate(invalid="ignore", over="ignore"):
        got = _lp_norms(f, w, p)
        assert _same_bits(got, _lp_norm_block_old(f.copy(), w, p))
        assert _same_bits(got, _lp_norms_old(f, w, p))
    assert np.isfinite(got[:300]).all() and got[0] == got[7] == 0.0


@pytest.mark.parametrize("system", NORM_SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("p", NORM_PS)
def test_lp_norm_many_unchanged(system, p):
    nodes = len(system.weights)
    rows = 3 * max(8, 2**15 // nodes // 8 * 8) + 7  # three blocks and a tail
    x = np.random.default_rng(6).standard_normal((rows, system.n))
    x[1] = 0.0
    x[2, 1:] = 0.0
    ref = _in_row_blocks(lambda b: _lp_norm_block_old(b @ system.values, system.weights, p),
                         x, nodes)
    assert _same_bits(system.lp_norm_many(x, p), ref)


def test_ratio_ascent_support_problem_unchanged():
    """The support-function problem form |<x, y>| / g(y) on an induced
    1.5-ball: an identity denominator map gives the old unmapped kernel's
    values bit for bit."""
    body = InducedBall(trig_system(1), 1.5)
    rng = as_generator(3)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40 * 3, 3))
    y[::3] = x
    args = (LpBall(1, 1.0), body, y.reshape(40, 3, 3))
    values = _optim.ratio_ascent(*args, num_maps=x[:, :, None],
                                 den_maps=np.broadcast_to(np.eye(3), (40, 3, 3)))
    ref_values, _ = _ratio_ascent_old(*args, num_maps=x[:, :, None])
    assert _same_bits(values, ref_values)


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
    values = _optim.ratio_ascent(*args, **kwargs)
    ref_values, _ = _ratio_ascent_old(*args, **kwargs)
    assert _same_bits(values, ref_values)


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
    pass gives the looped kernel's values bit for bit."""
    system = trig_prefix_system(2)
    rng = as_generator(11)
    frames = _unit_rows(rng.standard_normal((30, 1, 2)))
    starts = rng.standard_normal((30, 12, 1))
    starts[0, 0] = 0.0  # a zero start stays zero
    num, den = _Counting(InducedBall(system, 1.0)), _Counting(InducedBall(system, 4.0))
    values = _optim.ratio_ascent(num, den, starts, num_maps=frames, den_maps=frames)
    ref_values, _ = _ratio_ascent_old(InducedBall(system, 1.0), InducedBall(system, 4.0),
                                      starts, num_maps=frames, den_maps=frames)
    assert _same_bits(values, ref_values)
    assert (num.calls, den.calls) == (1, 1)  # one gradient call per base body


def test_one_dimensional_support_problem_unchanged():
    """The support-function problem form on a 1-D body: the lifted numerator
    |t| is 1-D, and so is every iterate."""
    body = LpBall(1, 3.0)
    x = as_generator(4).standard_normal((25, 1))
    starts = as_generator(5).standard_normal((25, 4, 1))
    args = (LpBall(1, 1.0), body, starts)
    values = _optim.ratio_ascent(*args, num_maps=x[:, :, None], den_maps=np.ones((25, 1, 1)))
    ref_values, _ = _ratio_ascent_old(*args, num_maps=x[:, :, None])
    assert _same_bits(values, ref_values)
    assert np.array_equal(values, np.abs(x[:, 0]))


# within one chunk of 65,536 rows, and one row past it
SAMPLE_COUNTS = [1000, 8192, 8193, 12_000, 65_537]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_sphere_chunks_unchanged(samples):
    got = list(_sphere_chunks(_stream(5), 3, samples))
    ref = list(_sphere_chunks_old(_stream(5), 3, samples))
    assert len(got) == len(ref) and all(_same_bits(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_expectation_norm_unchanged(samples):
    body = InducedBall(trig_system(1), 1.5)
    got = expectation_norm(body, samples, seed=6)
    assert _same_value(got, _expectation_norm_old(body, samples, 6))


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_held_stream_reused_unchanged(samples, monkeypatch):
    """Estimator calls that repeat the last stream of at most one chunk draw no
    normals and keep every bit; a longer stream is drawn again each call."""
    sample, draws = stochastic.haar_sphere_sample, []

    def counted(*args):
        draws.append(args)
        return sample(*args)

    monkeypatch.setattr(stochastic, "haar_sphere_sample", counted)
    monkeypatch.setattr(stochastic, "_held", None)
    body = InducedBall(trig_system(1), 1.5)
    ref = _expectation_norm_old(body, samples, 6)
    means = [expectation_norm(body, samples, seed=6) for _ in range(2)]
    ratios = [mc_volume_ratio(body, LpBall(3, 2.0), samples, seed=6) for _ in range(2)]
    assert all(_same_value(got, ref) for got in means)
    assert _same_estimate(ratios[1], ratios[0])
    assert len(draws) == (1 if samples <= _CHUNK else 4 * -(-samples // _CHUNK))


NET_SCALES = (0.25, 0.5, 1.0, 2.0)


def _net_case(body, seed, ref=None, scales=NET_SCALES):
    """A Euclidean net at the net-chain scales, or one in ``ref`` at ``scales``."""
    label = body.label if ref is None else f"{body.label}|{ref.label}"
    return pytest.param(body, ref or euclidean_ball(body.dim), scales, seed, id=f"{label}-{seed}")


def _induced_net_cases():
    """The nets of the dual-search benchmark, an induced p-ball in an induced
    q-norm, at its scale and twice it: these gauges take the BLAS row path."""
    for n, p, q, delta in ((3, 4.0, 2.0, 0.5), (4, 4.0, 1.0, 0.8), (5, 2.0, 1.0, 1.2)):
        system = trig_prefix_system(n)
        for seed in (7, 8):
            yield _net_case(InducedBall(system, p), seed, InducedBall(system, q), (delta, 2 * delta))


@pytest.mark.parametrize("body, ref, scales, seed", [
    *(_net_case(euclidean_ball(2), k) for k in range(7, 12)),
    *(_net_case(LpBall(2, np.inf), k) for k in range(7, 12)),
    _net_case(InducedBall(trig_system(1), 4.0), 3),
    *_induced_net_cases(),
    # every row is settled before the first pick: the open set empties at once
    _net_case(euclidean_ball(2), 1, euclidean_ball(2), (2.2,))])
def test_shared_net_traversal_unchanged(body, ref, scales, seed):
    """One traversal for every scale, as in net-chain, against a separate run
    of the replaced single-scale construction at each scale; the traversal
    and the certificate drop settled rows, the replaced code gauged them all."""
    nets = greedy_nets(body, ref, scales, seed)
    for net, delta in zip(nets, scales):
        points, certified, coverage = _greedy_net_old(body, ref, delta, seed)
        assert _same_bits(net.net_points, points)
        assert (net.certified, net.coverage) == (certified, coverage)


@pytest.mark.parametrize("kind, qs", [("l1", ()), ("lq", (1.5,))])
def test_radius_ratio_samples_stacked_frames_unchanged(kind, qs):
    """The frames of a cell from one batched QR, the radius grid's streams as drawn."""
    grid = dict(seeds=range(3), dims=(3, 5), ps=(4.0,), qs=qs, subspaces=2, restarts=8)
    got = widths.radius_ratio_samples(kind, **grid)
    assert _same_bits(got, _radius_ratio_samples_old(kind, **grid))
