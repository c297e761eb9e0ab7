import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from widthlab import _optim, bodies
from widthlab.bodies import Body, InducedBall, LpBall, PolarBody, ProjectionBody
from widthlab.errors import BadDimensions
from widthlab.linalg import as_generator, random_subspace
from widthlab.stochastic import haar_sphere_sample
from widthlab.systems import sphere_harmonics_system, trig_prefix_system, trig_system


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
        values, _ = _optim.ratio_ascent(body, body, starts, np.eye(3)[None], np.eye(3)[None])
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
    # a radius-lq cell: no step depends on the cap, and every problem stops
    # on its own rule before it, so a higher cap moves no bit
    num, den, starts, nmaps, dmaps = _radius_problems(20, seed=7)
    ref = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    monkeypatch.setattr(_optim, "MAX_ITERS", 1000)
    got = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def _lp_support(body, x):
    """The support function at x of a base whose form has p = inf or p = 1, as
    the linear program of its Hoelder dual: min ||lambda||_1 subject to
    M lambda = x at p = inf (all nodes, unit weights), and min t subject to
    |lambda_i| <= t, M diag(w) lambda = x at p = 1."""
    m, w, p = bodies._lp_form(body)
    n, nodes = m.shape
    eye = np.eye(nodes)
    if np.isinf(p):
        cost = np.concatenate([np.zeros(nodes), np.ones(nodes)])
        a_ub = np.block([[eye, -eye], [-eye, -eye]])
        a_eq = np.hstack([m, np.zeros((n, nodes))])
    else:
        cost = np.concatenate([np.zeros(nodes), [1.0]])
        a_ub = np.block([[eye, -np.ones((nodes, 1))], [-eye, -np.ones((nodes, 1))]])
        a_eq = np.hstack([m * w, np.zeros((n, 1))])
    values = []
    for target in x:
        res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(2 * nodes), A_eq=a_eq, b_eq=target,
                      bounds=[(None, None)] * len(cost), method="highs")
        assert res.status == 0
        values.append(res.fun)
    return np.array(values)


class TestPolarBrackets:
    """Polar gauges: min ||lambda||_{p',w} subject to M diag(w) lambda = x,
    bracketed by ``bodies._irls``; the gauge is the certified lower end."""

    @pytest.mark.parametrize("p", [1.5, 4.0])
    @pytest.mark.parametrize("degree", [1, 2], ids=["trig-3", "trig-5"])
    def test_every_row_bracket_closes(self, degree, p):
        polar = PolarBody(InducedBall(trig_system(degree), p))
        x = haar_sphere_sample(polar.dim, 500, seed=degree)
        upper, lower, _ = polar._bracket(x)
        assert np.all(upper - lower <= bodies.BRACKET_RTOL * upper)
        assert np.all(lower <= upper * (1 + 1e-14))  # equal ends may differ in the last bit
        np.testing.assert_array_equal(polar.gauge_many(x), lower)

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_euclidean_gauge_is_the_norm(self, degree):
        # at p = 2 the first least-squares pass is the minimum
        x = np.random.default_rng(degree).standard_normal((300, 2 * degree + 1))
        gauges = PolarBody(InducedBall(trig_system(degree), 2.0)).gauge_many(x)
        np.testing.assert_allclose(gauges, np.linalg.norm(x, axis=1), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p, exact, loss", [(np.inf, 1, 1e-14), (1.0, np.inf, 5e-3)])
    def test_coordinate_ends_are_the_dual_norms(self, p, exact, loss):
        # the cube's polar is the cross-polytope, and back.  M = I leaves one
        # feasible lambda, x itself; at p = inf its certificate is exact, at
        # p = 1 it comes from the finite iteration exponent (measured: at
        # most 4.5e-3 below the max norm here)
        x = np.random.default_rng(3).standard_normal((500, 4))
        gauges = PolarBody(LpBall(4, p)).gauge_many(x)
        norms = np.linalg.norm(x, ord=exact, axis=1)
        assert np.all(gauges <= norms * (1 + 1e-12))
        assert np.all(gauges >= norms * (1 - loss))

    #: the most a polar gauge at an LP end may sit below the optimum
    #: (relative), and the most its median over the targets may.  Measured
    #: on these targets: 2.2e-3, 2.6e-3 and 5.3e-3 at p = inf (trig-3, trig-5,
    #: sphere-4), 1.8e-4, 3.2e-3 and 3.9e-3 at p = 1; over target seeds 0-3
    #: the worst were 9.1e-3 (p = inf) and 1.3e-2 (p = 1), and the medians at
    #: most 1.5e-3 and 3.9e-7
    END_LOSS = 2e-2
    END_MEDIAN_LOSS = {np.inf: 2e-3, 1.0: 1e-6}

    @pytest.mark.parametrize("p", [np.inf, 1.0])
    @pytest.mark.parametrize("system", [trig_system(1), trig_system(2),
                                        sphere_harmonics_system(1)], ids=lambda s: s.name)
    def test_lp_ends_against_linear_program(self, system, p):
        # the brackets need not close at the LP ends: the rows run to the cap,
        # and the certified lower end stays below the optimum (at p = inf the
        # form takes every node, the sphere's zero-weight poles too)
        body = InducedBall(system, p)
        x = np.random.default_rng(0).standard_normal((60, body.dim))
        gauges, exact = PolarBody(body).gauge_many(x), _lp_support(body, x)
        assert np.all(gauges <= exact * (1 + 1e-12))
        loss = 1.0 - gauges / exact
        assert loss.max() <= self.END_LOSS
        assert np.median(loss) <= self.END_MEDIAN_LOSS[p]

    def test_bases_without_a_form_raise(self):
        body = InducedBall(trig_system(2), 1.5)
        for base in (PolarBody(body), ProjectionBody(body, random_subspace(5, 3, seed=0))):
            with pytest.raises(BadDimensions):
                PolarBody(base)


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
        minima, bounds = proj._bracket(points)
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
    def test_high_p_converges(self, p, monkeypatch):
        # the undamped reweighting diverges here.  With the bracket stop out
        # of the way every row runs all IRLS_PASSES passes and converges; at
        # the stop the ends still bracket the minimum, within BRACKET_RTOL
        system = trig_system(2)
        sub = random_subspace(5, 3, seed=4)
        proj = ProjectionBody(InducedBall(system, p), sub)
        points = haar_sphere_sample(3, 10, seed=5)
        stopped, rtol = zip(*proj._bracket(points)), bodies.BRACKET_RTOL
        monkeypatch.setattr(bodies, "BRACKET_RTOL", 0.0)
        minima, bounds = proj._bracket(points)
        comp = sub.complement().frame
        for x, low, high, (up, down) in zip(points @ sub.frame, bounds, minima, stopped):
            f = lambda z: proj.base.gauge(x + z @ comp)  # noqa: E731
            res = minimize(f, np.zeros(2), method="Powell",
                           options=dict(xtol=1e-12, ftol=1e-15, maxfev=100_000))
            res = minimize(f, res.x, method="Nelder-Mead",
                           options=dict(xatol=1e-12, fatol=1e-15, maxfev=100_000))
            assert low == pytest.approx(res.fun, rel=1e-9)
            assert high == pytest.approx(res.fun, rel=1e-9)
            assert low <= high * (1 + 1e-12)
            assert down <= res.fun * (1 + 1e-9) and up >= res.fun * (1 - 1e-9)
            assert up - down <= rtol * up

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

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_frozen_rows_are_bracketed(self, p):
        # every row stops with its dual bound within BRACKET_RTOL of its IRLS
        # minimum, and the gauge is that bound
        proj = ProjectionBody(InducedBall(trig_system(2), p), random_subspace(5, 3, seed=6))
        points = haar_sphere_sample(3, 400, seed=7)
        minima, bounds = proj._bracket(points)
        assert np.all(minima - bounds <= bodies.BRACKET_RTOL * minima)
        assert np.all(bounds <= minima * (1 + 1e-14))
        np.testing.assert_array_equal(proj.gauge_many(points), bounds)

    def test_row_alone_matches_batch(self):
        system = trig_system(2)
        sub = random_subspace(5, 3, seed=1)
        proj = ProjectionBody(InducedBall(system, 1.0), sub)
        points = haar_sphere_sample(3, 50, seed=2)
        batch = proj.gauge_many(points)
        for k in (0, 17, 49):
            assert proj.gauge_many(points[k:k + 1])[0] == pytest.approx(batch[k], rel=1e-9)
