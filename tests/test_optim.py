import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from widthlab import _optim
from widthlab.bodies import (Body, InducedBall, LpBall, PolarBody, ProjectionBody,
                             _support_majorant, linear_image)
from widthlab.errors import BadDimensions
from widthlab.linalg import as_generator, random_subspace
from widthlab.stochastic import haar_sphere_sample
from widthlab.systems import trig_prefix_system, trig_system


def _radius_problems(count, seed=0):
    """Section-radius problems of one (n, p, q) cell, in the kernel's form:
    the section of A*B_4 by span(F) has 1.5-norm radius
    max g_1.5(y F) / g_4(y F A^{-T})."""
    system = trig_prefix_system(4)
    rng = as_generator(seed)
    num_maps, den_maps, starts = [], [], []
    for _ in range(count):
        a = np.diag(np.exp(rng.uniform(-1.0, 1.0, 4)))
        sub = random_subspace(4, 2, rng)
        num_maps.append(sub.frame)
        den_maps.append(sub.frame @ np.linalg.inv(a).T)
        starts.append(rng.standard_normal((16, 2)))
    return (InducedBall(system, 1.5), InducedBall(system, 4.0), np.array(starts),
            np.array(num_maps), np.array(den_maps))


class _CountingBall(Body):
    """Euclidean ball that counts its gradient-oracle calls."""

    def __init__(self, dim):
        self.dim = dim
        self.label = "counting"
        self.calls = 0

    def gauge_grad_many(self, points):
        self.calls += 1
        g = np.linalg.norm(points, axis=1)
        return g, points / g[:, None]


class TestRatioAscent:
    def test_batch_matches_single_solves(self):
        num, den, starts, nmaps, dmaps = _radius_problems(20)
        batch, _ = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
        for k in range(20):
            alone, _ = _optim.ratio_ascent(num, den, starts[k:k + 1],
                                           num_maps=nmaps[k:k + 1],
                                           den_maps=dmaps[k:k + 1])
            assert alone[0] == pytest.approx(batch[k], rel=1e-6)

    def test_value_is_achieved_at_returned_point(self):
        num, den, starts, nmaps, dmaps = _radius_problems(5, seed=3)
        values, points = _optim.ratio_ascent(num, den, starts, num_maps=nmaps,
                                             den_maps=dmaps)
        for value, point, nmap, dmap in zip(values, points, nmaps, dmaps):
            assert den.gauge(point @ dmap) == pytest.approx(1.0, abs=1e-12)
            ratio = num.gauge(point @ nmap) / den.gauge(point @ dmap)
            assert value == pytest.approx(ratio, rel=1e-12)

    def test_constant_ratio_stops_early(self):
        body = _CountingBall(3)
        starts = np.random.default_rng(0).standard_normal((1, 8, 3))
        values, _ = _optim.ratio_ascent(body, body, starts)
        assert values[0] == pytest.approx(1.0)
        iterations = (body.calls - 1) // 2  # one final scaling call
        assert iterations == _optim.PATIENCE + 1


#: the most a stall stop may leave below a long ascent (relative)
STOP_LOSS = 1e-3


def _long_rule(monkeypatch):
    """A reference ascent: ten times the cap and twenty times the patience."""
    monkeypatch.setattr(_optim, "MAX_ITERS", 3000)
    monkeypatch.setattr(_optim, "PATIENCE", 400)


def test_stall_stop_loss_is_small(monkeypatch):
    # a radius-lq cell: the values are the best achieved on the first passes
    # of the reference's own trajectories, so never above it (up to roundoff:
    # a problem's rows meet the oracle in batches of another shape), and
    # within STOP_LOSS below it
    num, den, starts, nmaps, dmaps = _radius_problems(40, seed=5)
    values, _ = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    _long_rule(monkeypatch)
    ref, _ = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    assert np.all(values <= ref * (1 + 1e-12))
    assert np.all(values >= (1 - STOP_LOSS) * ref)


def test_iteration_cap_is_only_a_cap(monkeypatch):
    # santalo's p = 4 polar gauges: no step depends on the cap, and every
    # problem stops on its own rule before it, so a higher cap moves no bit
    body = InducedBall(trig_system(1), 4.0)
    points = [haar_sphere_sample(3, 3000, seed=1000 + k) for k in range(3)]
    polars = [PolarBody(body, restarts=3, seed=17 * k) for k in range(3)]
    ref = [polar.gauge_many(x) for polar, x in zip(polars, points)]
    monkeypatch.setattr(_optim, "MAX_ITERS", 1000)
    for polar, x, gauges in zip(polars, points, ref):
        assert np.array_equal(polar.gauge_many(x), gauges)


class _CountingInduced(InducedBall):
    """Induced ball that counts its gradient-oracle calls; still an
    ``InducedBall``, so it keeps its support majorant."""

    calls = 0

    def gauge_grad_many(self, points):
        self.calls += 1
        return super().gauge_grad_many(points)


class TestGapStop:
    def test_unbounded_stop_is_unchanged_by_a_nan_bound(self):
        starts = np.random.default_rng(0).standard_normal((1, 8, 3))
        body = _CountingBall(3)
        _optim.ratio_ascent(body, body, starts,
                            _bound=lambda live, y, ratio, grad: np.full(live.size, np.nan))
        assert (body.calls - 1) // 2 == _optim.PATIENCE + 1

    def test_bound_at_the_value_freezes_after_one_pass(self):
        starts = np.random.default_rng(0).standard_normal((1, 8, 3))
        body = _CountingBall(3)
        values, _ = _optim.ratio_ascent(body, body, starts,
                                        _bound=lambda live, y, ratio, grad: ratio)
        assert values[0] == pytest.approx(1.0)
        assert body.calls == 3  # one pass of two bodies, and the final scaling

    def test_euclidean_support_values_take_one_pass(self):
        # at p = 2 the smart start is the maximizer and the Hoelder bound
        # meets it at once; without the gap stop the stall rule runs
        x = np.random.default_rng(1).standard_normal((500, 3))
        body = _CountingInduced(trig_system(1), 2.0)
        values, _ = _optim.support_values(body, x, restarts=3, seed=5)
        assert body.calls == 2  # one loop pass, then the final scaling
        np.testing.assert_allclose(values, np.linalg.norm(x, axis=1), rtol=1e-14)

    def test_zero_targets_freeze_at_once(self):
        body = _CountingInduced(trig_system(1), 4.0)
        values, _ = _optim.support_values(body, np.zeros((4, 3)), restarts=6, seed=0)
        assert body.calls == 2
        assert np.array_equal(values, np.zeros(4))

    @pytest.mark.parametrize("body", [
        InducedBall(trig_system(1), 1.5), InducedBall(trig_system(1), 4.0), LpBall(3, 3.0),
        linear_image(InducedBall(trig_system(1), 4.0), np.diag([2.0, 1.0, 0.5]))],
        ids=lambda b: b.label)
    def test_gap_stopped_values_are_certified(self, body, monkeypatch):
        x = np.random.default_rng(2).standard_normal((200, 3))
        values, _ = _optim.support_values(body, x, restarts=6, seed=0)
        # achieved values: never above the majorant at x (up to roundoff) ...
        assert np.all(values <= _support_majorant(body).gauge_many(x) * (1 + 1e-12))
        # ... within STOP_LOSS of a long ascent without the gap stop, and
        # within GAP_RTOL of it when the stall stop is out of the way
        with monkeypatch.context() as mp:
            mp.setattr(_optim, "PATIENCE", _optim.MAX_ITERS)
            gapped, _ = _optim.support_values(body, x, restarts=6, seed=0)
        starts = np.random.default_rng(3).standard_normal((200, 16, 3))
        starts[:, 0] = x
        _long_rule(monkeypatch)
        ref, _ = _optim.ratio_ascent(LpBall(1, 1.0), body, starts, num_maps=x[:, :, None])
        assert np.all(ref * (1 - STOP_LOSS) <= values)
        assert np.all(ref <= gapped * (1 + _optim.GAP_RTOL))


def _lp_offset_minimum(system, anchor, directions):
    """Exact min over z of the induced 1-norm of anchor + z D, as a linear program:
    minimize w.s subject to -s <= b + A z <= s."""
    w = system.weights
    b = anchor @ system.values
    a = (directions @ system.values).T
    eye = np.eye(len(w))
    m = a.shape[1]
    res = linprog(np.concatenate([np.zeros(m), w]),
                  A_ub=np.block([[a, -eye], [-a, -eye]]), b_ub=np.concatenate([-b, b]),
                  bounds=[(None, None)] * m + [(0, None)] * len(w), method="highs")
    assert res.status == 0
    return res.fun


class TestOffsetMinima:
    """Projection gauges: min over offsets z in the complement of g(x + z C),
    solved by ``ProjectionBody``'s reweighted least squares."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_projection_gauges_against_linear_program(self, n):
        system = trig_system((n - 1) // 2)
        sub = random_subspace(n, math.ceil(n / 2), seed=n)
        proj = ProjectionBody(InducedBall(system, 1.0), sub)
        points = haar_sphere_sample(sub.dim, 200, seed=n)
        minima, bounds = proj._regression(points)
        comp = sub.complement().frame
        exact = np.array([_lp_offset_minimum(system, x, comp) for x in points @ sub.frame])
        # achieved values: never below the optimum, and close to it
        assert np.all(minima >= exact * (1 - 1e-9))
        excess = minima / exact - 1.0
        assert excess.mean() <= 2e-4
        assert excess.max() <= 1e-2
        # the gauge is the dual bound: never above the optimum
        assert np.all(bounds <= exact * (1 + 1e-9))
        np.testing.assert_array_equal(proj.gauge_many(points), bounds)

    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_high_p_converges(self, p):
        # the undamped reweighting diverges here
        system = trig_system(2)
        sub = random_subspace(5, 3, seed=4)
        proj = ProjectionBody(InducedBall(system, p), sub)
        points = haar_sphere_sample(3, 10, seed=5)
        minima, bounds = proj._regression(points)
        comp = sub.complement().frame
        for x, low, high in zip(points @ sub.frame, bounds, minima):
            f = lambda z: proj.base.gauge(x + z @ comp)  # noqa: E731
            res = minimize(f, np.zeros(2), method="Powell",
                           options=dict(xtol=1e-12, ftol=1e-15, maxfev=100_000))
            res = minimize(f, res.x, method="Nelder-Mead",
                           options=dict(xatol=1e-12, fatol=1e-15, maxfev=100_000))
            assert low == pytest.approx(res.fun, rel=1e-9)
            assert high == pytest.approx(res.fun, rel=1e-9)
            assert low <= high * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 60.0])
    def test_zero_row_has_gauge_zero(self, p):
        # a RuntimeWarning fails the run (pyproject's filterwarnings); at
        # p = 60 unscaled weights 1e-6^58 would underflow to a singular system
        proj = ProjectionBody(InducedBall(trig_system(2), p), random_subspace(5, 3, seed=0))
        points = np.vstack([np.zeros(3), haar_sphere_sample(3, 3, seed=1)])
        gauges = proj.gauge_many(points)
        assert gauges[0] == 0.0 and np.all(gauges[1:] > 0)

    def test_bases_without_a_form_raise(self):
        body = InducedBall(trig_system(2), 1.0)
        inner = ProjectionBody(body, random_subspace(5, 3, seed=0))
        for base in (LpBall(5, np.inf), InducedBall(trig_system(2), np.inf), PolarBody(body)):
            with pytest.raises(BadDimensions):
                ProjectionBody(base, random_subspace(5, 3, seed=1))
        with pytest.raises(BadDimensions):
            ProjectionBody(inner, random_subspace(3, 2, seed=2))

    def test_row_alone_matches_batch(self):
        system = trig_system(2)
        sub = random_subspace(5, 3, seed=1)
        proj = ProjectionBody(InducedBall(system, 1.0), sub)
        points = haar_sphere_sample(3, 50, seed=2)
        batch = proj.gauge_many(points)
        for k in (0, 17, 49):
            assert proj.gauge_many(points[k:k + 1])[0] == pytest.approx(batch[k], rel=1e-9)
