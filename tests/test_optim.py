import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from widthlab import _optim, bodies, harness
from widthlab.bodies import (Body, InducedBall, LinearImageBody, LpBall, PolarBody,
                             ProjectionBody)
from widthlab.errors import BadDimensions
from widthlab.linalg import Subspace, as_generator, random_subspace
from widthlab.stochastic import _section_radii, haar_sphere_sample
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
        batch = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
        for k in range(20):
            alone = _optim.ratio_ascent(num, den, starts[k:k + 1], num_maps=nmaps[k:k + 1],
                                        den_maps=dmaps[k:k + 1])
            assert alone[0] == pytest.approx(batch[k], rel=1e-6)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_values_never_exceed_the_closed_form(self, n):
        # ellipsoid sections in an ellipsoidal norm, where _section_radii's
        # closed form is exact: an achieved value is a lower bound.  The
        # section of A*B_2 by span(F) is posed twice: the image body on the
        # maps F, and, as the radius checks pose it, the induced 2-ball of an
        # orthonormal system on the denominator maps F A^{-T}
        rng = as_generator(n)
        a = np.diag(np.exp(rng.uniform(-1.0, 1.0, n)))
        target = LinearImageBody(LpBall(n, 2.0), rng.standard_normal((n, n)) + 3 * np.eye(n))
        s = n // 2 + 1
        frames = np.array([random_subspace(n, s, rng).frame for _ in range(15)])
        starts = rng.standard_normal((15, 16, s))
        exacts = []
        for body, den_maps in ((LinearImageBody(LpBall(n, 2.0), a), frames),
                               (InducedBall(trig_prefix_system(n), 2.0),
                                frames @ np.linalg.inv(a).T)):
            exact = _section_radii(body, target, frames, den_maps, starts[0])
            values = _optim.ratio_ascent(target, body, starts, num_maps=frames, den_maps=den_maps)
            assert np.all(values <= exact * (1 + 1e-12))  # measured: at most 1.1e-15 above
            assert np.all(values >= exact * (1 - STOP_LOSS))  # measured: 2.9e-6 below
            exacts.append(exact)
        np.testing.assert_allclose(exacts[1], exacts[0], rtol=1e-12)  # measured: 2.3e-15

    def test_constant_ratio_stops_early(self):
        body = _CountingBall(3)
        starts = np.random.default_rng(0).standard_normal((1, 8, 3))
        values = _optim.ratio_ascent(body, body, starts, np.eye(3)[None], np.eye(3)[None])
        assert values[0] == pytest.approx(1.0)
        assert body.calls // 2 == _optim.PATIENCE + 1  # two calls per iteration


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
    values = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    _long_rule(monkeypatch)
    ref = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    assert np.all(values <= ref * (1 + 1e-12))
    assert np.all(values >= (1 - STOP_LOSS) * ref)


def test_iteration_cap_is_only_a_cap(monkeypatch):
    # a radius-lq cell: no step depends on the cap, and every problem stops
    # on its own rule before it, so a higher cap moves no bit
    num, den, starts, nmaps, dmaps = _radius_problems(20, seed=7)
    ref = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    monkeypatch.setattr(_optim, "MAX_ITERS", 1000)
    got = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
    assert np.array_equal(got, ref)


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


def _lp_offset_minimum(body, anchor, directions):
    """Exact min over z of the gauge of anchor + z D, for a base whose form is
    (M, w, 1), as a linear program: minimize w.s subject to -s <= b + A z <= s."""
    m, w, _ = bodies._lp_form(body)
    b = anchor @ m
    a = (directions @ m).T
    eye = np.eye(len(w))
    m = a.shape[1]
    res = linprog(np.concatenate([np.zeros(m), w]),
                  A_ub=np.block([[a, -eye], [-a, -eye]]), b_ub=np.concatenate([-b, b]),
                  bounds=[(None, None)] * m + [(0, None)] * len(w), method="highs")
    assert res.status == 0
    return res.fun


def _assert_exact_ends(body, sub, points):
    """Both bracket ends of the p = 1 projection gauge at ``points`` sit at the
    linear program's optimum, to 1e-12: the vertex's value (the achieved
    minimum) and its dual bound (the certified gauge)."""
    proj = ProjectionBody(body, sub)
    minima, bounds = proj._bracket(points)
    comp = sub.complement().frame
    exact = np.array([_lp_offset_minimum(body, x, comp) for x in points @ sub.frame])
    np.testing.assert_allclose(minima, exact, rtol=1e-12, atol=0)
    np.testing.assert_allclose(bounds, exact, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(proj.gauge_many(points), bounds)


class TestOffsetMinima:
    """Projection gauges: min over offsets z in the complement of g(x + z C),
    solved by ``ProjectionBody``'s reweighted least squares (at p = 1 with
    its vertex step)."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_projection_gauges_against_linear_program(self, n):
        sub = random_subspace(n, math.ceil(n / 2), seed=n)
        _assert_exact_ends(InducedBall(trig_system((n - 1) // 2), 1.0), sub,
                           haar_sphere_sample(sub.dim, 200, seed=n))

    @pytest.mark.parametrize("case", ["sphere-9", "l1-5"])
    def test_vertex_ends_against_linear_program(self, case):
        # the sphere's two zero-weight poles never enter a basis; B_1^5 has
        # tied residuals, and on its coordinate plane degenerate vertices and
        # zero offset columns (the plane's nodes), which never enter a basis
        if case == "sphere-9":
            cases = [(InducedBall(sphere_harmonics_system(2), 1.0), random_subspace(9, 5, seed=9))]
        else:
            cases = [(LpBall(5, 1.0), random_subspace(5, 2, seed=5)),
                     (LpBall(5, 1.0), Subspace(np.eye(5)[:2]))]
        for body, sub in cases:
            points = np.vstack([haar_sphere_sample(sub.dim, 200, seed=3), np.eye(sub.dim)])
            _assert_exact_ends(body, sub, points)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_l1_projection_rows_close_at_the_first_check(self, seed, monkeypatch):
        # the projection-l1-ball constructions (n = 3, 5, 7, 9): every row
        # closes to 1e-12 at the first bracket check, after one solve per call
        calls, irls = [], bodies._irls

        def counted(v, e, w, solve, dual, vertex=None):
            solves = []

            def tally(s, r):
                solves.append(len(r))
                return solve(s, r)
            ends = irls(v, e, w, tally, dual, vertex)
            calls.append((len(solves), ends[0], ends[1]))
            return ends
        monkeypatch.setattr(bodies, "_irls", counted)
        assert harness.CHECKS["projection-l1-ball"](seed).passed
        assert len(calls) == 4
        for solves, upper, lower in calls:
            assert solves == 1
            assert np.all(upper - lower <= 1e-12 * upper)

    @pytest.mark.parametrize("case", ["image-4", "l1-7"])
    def test_roundoff_never_breaks_a_bracket(self, case):
        # image-4: the offsets are exact multiples of a sign vector, whose
        # projection off them is roundoff and once "certified" a bound 70%
        # above the optimum; l1-7: a QR frame leaves node 3 an offset column
        # of 8e-18, and a basis through it once gave a "vertex" 67% below it.
        # Such bases are singular, so some rows only close to BRACKET_RTOL
        if case == "image-4":
            a = np.array([[1, -2, 2, -1], [-1, 1, 0, -2], [1, 2, -1, 0], [1, -1, 2, 0]], float)
            body, sub = LinearImageBody(LpBall(4, 1.0), a), Subspace(np.eye(4)[2:])
        else:
            x = np.zeros((5, 7))
            x[[0, 0, 1, 1, 2, 3, 3, 4, 4], [0, 1, 0, 2, 3, 4, 5, 4, 6]] = 1.0
            body, sub = LpBall(7, 1.0), Subspace(np.linalg.qr(x.T)[0].T)
        points = np.vstack([haar_sphere_sample(sub.dim, 200, seed=3), np.eye(sub.dim)])
        minima, bounds = ProjectionBody(body, sub)._bracket(points)
        comp = sub.complement().frame
        exact = np.array([_lp_offset_minimum(body, x, comp) for x in points @ sub.frame])
        assert np.all(minima >= exact * (1 - 1e-12)) and np.all(bounds <= exact * (1 + 1e-12))
        assert np.all(minima - bounds <= bodies.BRACKET_RTOL * minima)

    def test_rows_the_descent_cannot_close_keep_a_bracket(self, monkeypatch):
        # with no pivots the first basis is the vertex, which leaves most
        # sphere-9 rows open: they keep their IRLS bracket, get a fresh basis
        # at each check and still hold the optimum (a RuntimeWarning fails the run)
        monkeypatch.setattr(bodies, "_PIVOTS", 0)
        body, sub = InducedBall(sphere_harmonics_system(2), 1.0), random_subspace(9, 3, seed=5)
        points = haar_sphere_sample(3, 40, seed=1)
        minima, bounds = ProjectionBody(body, sub)._bracket(points)
        comp = sub.complement().frame
        exact = np.array([_lp_offset_minimum(body, x, comp) for x in points @ sub.frame])
        assert np.any(minima - bounds > 1e-9 * minima)
        assert np.all(bounds <= exact * (1 + 1e-12)) and np.all(minima >= exact * (1 - 1e-12))

    def test_singular_basis_leaves_the_row(self):
        # nodes 0 and 1 share one offset column: row 0's three smallest |r_i|
        # take both, a singular basis, so it gets no vertex (u = 0 certifies
        # nothing); row 1's basis {2, 3, 4} is regular and its vertex optimal
        # (value 5 = <u, r>, with B u = 0)
        b = np.array([[1.0, 1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0]])
        r = np.array([[0.0, 0.0, 0.5, -0.25, 1.0], [3.0, -2.0, 0.5, 0.25, -1.0]])
        corner, cert = bodies._vertex(r, b, np.ones(5))
        np.testing.assert_array_equal(corner, [r[0], [4.75, -0.25, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(cert, [np.zeros(5), [1.0, -1.0, 0.0, 0.0, 0.0]])

    def test_negligible_offset_columns_never_enter_a_basis(self):
        # the offsets vanish on nodes 0 and 1 (as on a coordinate frame), so
        # no regular basis holds them: row 0, whose smallest |r_i| sit there,
        # starts from {2, 3, 4} instead and reaches its optimal vertex
        r = np.array([[0.0, 0.0, 0.5, -0.25, 1.0]])
        corner, cert = bodies._vertex(r, np.eye(5)[2:], np.ones(5))
        np.testing.assert_array_equal(corner, np.zeros((1, 5)))
        np.testing.assert_array_equal(cert[:, :2], np.zeros((1, 2)))

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
