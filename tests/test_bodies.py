import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab.bodies import (InducedBall, LinearImageBody, LpBall, PolarBody, ProjectionBody,
                             _polar, euclidean_ball, induced_ball,
                             linear_image)
from widthlab.errors import BadDimensions, DimensionMismatch, RankDeficient, SingularMatrix
from widthlab.harness import _build_body
from widthlab.linalg import random_subspace
from widthlab.manifolds import multiplier_diagonal, sphere
from widthlab.systems import (_BLOCK_VALUES, OrthonormalSystem, _lp_norms, _power_in_place,
                              sphere_harmonics_system, trig_system)

COS_L1 = 2.0 * math.sqrt(2.0) / math.pi
#: an induced 2-ball is |x L|, L the Cholesky factor of the Gram matrix: its
#: gauges match the node kernel to 4 eps relative and its gradients, whose
#: entries are at most about 1, to 8 eps (measured at most 2.1 and 4.5 eps)
TWO_BALL_RTOL = 4 * np.finfo(float).eps
TWO_BALL_ATOL = 8 * np.finfo(float).eps


@pytest.fixture(scope="module")
def trig3():
    return trig_system(1)


class TestGaugeAxioms:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lp_ball_axioms(self, seed):
        rng = np.random.default_rng(seed)
        p = float(rng.choice([1.0, 1.5, 2.0, 4.0, np.inf]))
        body = LpBall(4, p)
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal((50, 4))
        gx = body.gauge_many(x)
        assert np.allclose(body.gauge_many(-x), gx, atol=1e-12)
        assert np.all(body.gauge_many(x + y) <= gx + body.gauge_many(y) + 1e-8)
        c = rng.standard_normal(50)
        assert np.allclose(body.gauge_many(c[:, None] * x), np.abs(c) * gx, atol=1e-8)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_induced_ball_axioms(self, seed):
        rng = np.random.default_rng(seed)
        body = induced_ball(trig_system(1), float(rng.choice([1.0, 1.5, 4.0])))
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 3))
        assert np.all(body.gauge_many(x + y)
                      <= body.gauge_many(x) + body.gauge_many(y) + 1e-8)

    def test_zero_iff_origin(self, trig3):
        body = induced_ball(trig3, 1.5)
        assert body.gauge(np.zeros(3)) == 0.0
        for k in range(3):
            assert body.gauge(np.eye(3)[k]) > 1e-12

    @pytest.mark.parametrize("p", [0.5, np.nan])
    def test_exponent_below_one_rejected(self, trig3, p):
        # NaN passed a "p < 1" guard: B_nan^2 gave NaN gauges and the induced
        # ball a raw ValueError from its power kernel
        with pytest.raises(BadDimensions):
            LpBall(2, p)
        with pytest.raises(BadDimensions):
            induced_ball(trig3, p)


@pytest.mark.parametrize("p", [2.0, 2.05, 2.1, 2.5, 3.0, 4.0])
def test_zero_row_has_zero_subgradient(trig3, p):
    # 1e-300^(p-1) underflows from p of about 2.08 on; the zero rows must
    # still get the subgradient 0, not 0/0, and the other row its gradient
    # (test_bitwise pins its bits)
    x = np.array([[0.0, 0.0, 0.0], [0.3, -1.2, 0.5], [-0.0, 0.0, -0.0]])
    for body in (LpBall(3, p), induced_ball(trig3, p)):
        with np.errstate(divide="raise", invalid="raise"):
            g, grad = body.gauge_grad_many(x)
        assert g[0] == 0.0 and g[2] == 0.0
        assert np.all(grad[[0, 2]] == 0.0)
        g1, grad1 = body.gauge_grad_many(x[1:2])
        assert g[1] == pytest.approx(g1[0], rel=1e-14)
        np.testing.assert_allclose(grad[1], grad1[0], rtol=1e-13)


class TestInducedBall:
    def test_p2_unit_vectors(self, trig3):
        body = induced_ball(trig3, 2.0)
        for k in range(3):
            assert body.gauge(np.eye(3)[k]) == pytest.approx(1.0, abs=1e-10)

    def test_p1_cosine(self, trig3):
        body = induced_ball(trig3, 1.0)
        assert body.gauge([0.0, 1.0, 0.0]) == pytest.approx(COS_L1, abs=1e-3)
        # the rescaled coefficient vector lands on the boundary
        assert body.gauge(np.array([0.0, 1.0, 0.0]) / body.gauge([0.0, 1.0, 0.0])) \
            == pytest.approx(1.0, abs=1e-12)

    def test_pinf_cosine(self, trig3):
        body = induced_ball(trig3, np.inf)
        assert body.gauge([0.0, 1.0, 0.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_containment_chain(self, trig3):
        # for p >= 2: gauge_p >= euclidean >= gauge_1 pointwise
        rng = np.random.default_rng(8)
        x = rng.standard_normal((500, 3))
        g1 = induced_ball(trig3, 1.0).gauge_many(x)
        g2 = induced_ball(trig3, 2.0).gauge_many(x)
        g4 = induced_ball(trig3, 4.0).gauge_many(x)
        eu = np.linalg.norm(x, axis=1)
        assert np.all(g4 >= g2 - 1e-10)
        assert np.allclose(g2, eu, atol=1e-8)
        assert np.all(g2 >= g1 - 1e-10)

    def test_gradients_by_finite_differences(self, trig3):
        rng = np.random.default_rng(9)
        for p in (1.5, 2.0, 4.0, 8.0):
            body = induced_ball(trig3, p)
            y = rng.standard_normal((10, 3))
            g, grad = body.gauge_grad_many(y)
            eps = 1e-7
            for i in range(3):
                yp = y.copy()
                yp[:, i] += eps
                fd = (body.gauge_many(yp) - g) / eps
                assert np.allclose(fd, grad[:, i], atol=1e-5)

    @pytest.mark.parametrize("system", [trig_system(1), trig_system(2), trig_system(4),
                                        sphere_harmonics_system(2), sphere_harmonics_system(3)],
                             ids=lambda s: s.name)
    def test_p2_gram_factor_matches_node_kernel(self, system):
        rows = 3 * (_BLOCK_VALUES // system.n // 8 * 8) + 7  # three blocks of n columns and a tail
        x = np.random.default_rng(11).standard_normal((rows, system.n))
        x[[0, rows - 1]] = 0.0
        f = x @ system.values
        ref = _lp_norms(f, system.weights, 2.0)
        ref_grad = ((f * system.weights) @ system.values.T) / np.maximum(ref, 1e-300)[:, None]
        body = induced_ball(system, 2.0)
        g, grad = body.gauge_grad_many(x)
        assert np.array_equal(body.gauge_many(x), g)
        assert g[0] == g[-1] == 0.0 and not grad[[0, -1]].any()
        np.testing.assert_allclose(g, ref, rtol=TWO_BALL_RTOL)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=TWO_BALL_ATOL)

    def test_p2_non_orthonormal_system(self):
        # random weights and values: G is far from the identity, so a factor
        # L = I would miss the node kernel by far more than the bounds (the
        # measured deviations are 2 eps on gauges and 75 eps on gradients)
        rng = np.random.default_rng(12)
        w = rng.random(15)
        system = OrthonormalSystem("skew", w / w.sum(), rng.standard_normal((4, 15)))
        assert np.max(np.abs(system.gram() - np.eye(4))) > 0.1
        x = rng.standard_normal((200, 4))
        f = x @ system.values
        ref = _lp_norms(f, system.weights, 2.0)
        g, grad = induced_ball(system, 2.0).gauge_grad_many(x)
        np.testing.assert_allclose(g, ref, rtol=1e-13)
        np.testing.assert_allclose(grad, ((f * system.weights) @ system.values.T) / ref[:, None],
                                   rtol=1e-12)

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_p2_dependent_functions_raise(self, trig3, factor):
        values = np.vstack([trig3.values, factor * trig3.values[1]])
        system = OrthonormalSystem("dependent", trig3.weights, values)
        with pytest.raises(RankDeficient):
            induced_ball(system, 2.0)

    @pytest.mark.parametrize("p", [2.0, 60.0, 1293.0])
    def test_out_of_range_gradients_are_rescued(self, trig3, p):
        # |f|^p overflows or underflows on these scales; the rescued rows
        # scale like the gauge, keep the 0-homogeneous gradient and satisfy
        # Euler's identity <grad g(x), x> = g(x)
        body = induced_ball(trig3, p)
        y = np.random.default_rng(10).standard_normal((12, 3))
        y /= np.max(np.abs(y @ trig3.values), axis=1)[:, None]  # largest |f| is 1: in range
        g0, grad0 = body.gauge_grad_many(y)
        for scale in (1e-200, 1e-5, 10.0, 1e200):
            g, grad = body.gauge_grad_many(scale * y)
            np.testing.assert_allclose(g, scale * g0, rtol=1e-12)
            np.testing.assert_allclose(grad, grad0, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(np.sum(grad * scale * y, axis=1), g, rtol=1e-12)


@pytest.mark.parametrize("system", [trig_system(1), sphere_harmonics_system(2)],
                         ids=["trig-3", "sphere-9"])
@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_one_rescue_rule(system, scale):
    """Every row's |f|^3 overflows or underflows, so every row is rescued, and
    both oracles follow the one rule bit for bit: norm = top * kernel(x / top)
    over the row's largest |f|, the 0-homogeneous gradient kernel(x / top)."""
    x = scale * np.random.default_rng(13).standard_normal((200, system.n))
    top = np.max(np.abs(x @ system.values), axis=1, keepdims=True)
    ref = top[:, 0] * _lp_norms((x / top) @ system.values, system.weights, 3.0)
    assert np.array_equal(system.lp_norm_many(x, 3.0), ref)
    body = induced_ball(system, 3.0)
    g_ref, grad_ref = body._gauge_grad_block(x / top)
    g, grad = body.gauge_grad_many(x)
    assert np.array_equal(g, top[:, 0] * g_ref) and np.array_equal(grad, grad_ref)


class TestLinearImage:
    def test_identity_preserves_gauge(self, trig3):
        rng = np.random.default_rng(2)
        base = induced_ball(trig3, 4.0)
        image = linear_image(base, np.eye(3))
        x = rng.standard_normal((100, 3))
        assert np.allclose(image.gauge_many(x), base.gauge_many(x), atol=1e-12)

    def test_semiaxis_on_boundary(self):
        body = linear_image(euclidean_ball(2), np.diag([2.0, 1.0]))
        assert body.gauge([2.0, 0.0]) == pytest.approx(1.0)
        assert body.gauge([0.0, 1.0]) == pytest.approx(1.0)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            linear_image(euclidean_ball(2), np.zeros((2, 2)))
        with pytest.raises(SingularMatrix):
            linear_image(euclidean_ball(2), [[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        with pytest.raises(DimensionMismatch):
            linear_image(euclidean_ball(2), [[1.0, 0.0], [0.0, np.nan]])

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_invertibility_is_scale_free(self, scale):
        # |det| = 1e-15 or 1e15: a matrix and its inverse transpose (the
        # polar's) are both accepted
        body = linear_image(euclidean_ball(5), scale * np.eye(5))
        assert _polar(body).gauge(np.full(5, 1.0 / (scale * 5**0.5))) == pytest.approx(1.0)

    def test_descriptor(self):
        # a configuration descriptor builds the image it describes
        body = _build_body({"kind": "linear_image", "base": {"kind": "lp", "dim": 2},
                            "matrix": {"diagonal": [2.0, 1.0]}})
        assert np.array_equal(body.matrix, np.diag([2.0, 1.0]))


class TestDualGauge:
    def test_p2_self_dual(self, trig3):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(3)
            assert PolarBody(induced_ball(trig3, 2.0)).gauge(x) == pytest.approx(
                np.linalg.norm(x), abs=1e-6)

    def test_zero_vector(self, trig3):
        assert PolarBody(induced_ball(trig3, 2.0)).gauge(np.zeros(3)) == 0.0

    def test_p1_bounded_by_sup_norm(self, trig3):
        val = PolarBody(induced_ball(trig3, 1.0)).gauge(np.array([0.0, 1.0, 0.0]))
        assert val <= math.sqrt(2.0) + 1e-6

    @pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
    def test_dominated_by_dual_exponent_norm(self, trig3, p):
        # pairing through an orthonormal system is an L2 inner product, so
        # Hoelder gives h_p(x) <= ||x||_(p') pointwise
        p_dual = p / (p - 1.0)
        rng = np.random.default_rng(int(p))
        x = rng.standard_normal((500, 3))
        h = PolarBody(induced_ball(trig3, p)).gauge_many(x)
        dom = trig3.lp_norm_many(x, p_dual)
        assert np.all(h <= dom + 1e-6)

    def test_polar_body_matches_support_function(self, trig3):
        body = induced_ball(trig3, 4.0)
        x = np.array([0.3, -0.7, 0.2])
        # h(x) = sup <x, y> / g(y): the best of many sampled ratios stays
        # below the gauge's bracket and close to it
        y = np.random.default_rng(0).standard_normal((20_000, 3))
        sampled = np.max(y @ x / body.gauge_many(y))
        value = PolarBody(body).gauge(x)
        assert sampled <= value * (1 + 1e-6)
        assert value == pytest.approx(sampled, rel=1e-3)

    def test_polar_body_gradient_is_danskin(self, trig3):
        # the gradient of the support function is the maximizer: central
        # differences of the gauge agree with it, and Euler's identity holds
        polar = PolarBody(induced_ball(trig3, 4.0))
        x = np.random.default_rng(6).standard_normal((5, 3))
        g, grad = polar.gauge_grad_many(x)
        assert np.array_equal(g, polar.gauge_many(x))
        assert np.allclose(np.sum(grad * x, axis=1), g, rtol=1e-12)
        h = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (polar.gauge_many(x + e) - polar.gauge_many(x - e)) / (2 * h)
            assert np.allclose(fd, grad[:, j], atol=1e-4)

    def test_polar_body_gradient_at_zero(self, trig3):
        g, grad = PolarBody(induced_ball(trig3, 1.5)).gauge_grad_many(np.zeros((1, 3)))
        assert g[0] == 0.0 and np.all(grad == 0.0)


class TestPolarRules:
    @pytest.mark.parametrize("p, dual", [(1.0, np.inf), (1.5, 3.0), (2.0, 2.0),
                                         (4.0, 4.0 / 3.0), (np.inf, 1.0)])
    def test_lp_ball_goes_to_dual_exponent(self, p, dual):
        polar = _polar(LpBall(3, p))
        assert isinstance(polar, LpBall) and polar.dim == 3 and polar.p == dual

    def test_linear_image_goes_to_inverse_transpose(self):
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        polar = _polar(linear_image(LpBall(2, 1.0), a))
        assert isinstance(polar, LinearImageBody)
        assert isinstance(polar.base, LpBall) and polar.base.p == np.inf
        assert np.allclose(polar.matrix, np.linalg.inv(a).T, rtol=0, atol=1e-15)
        # h_{A V}(x) = h_V(A^T x), and the support function of the cross-polytope
        # is the max norm
        x = np.random.default_rng(1).standard_normal((20, 2))
        assert np.allclose(polar.gauge_many(x), np.max(np.abs(x @ a), axis=1), rtol=1e-14)

    def test_polar_of_polar_is_the_body(self, trig3):
        body = induced_ball(trig3, 4.0)
        assert _polar(PolarBody(body)) is body

    def test_other_bodies_become_polar_bodies(self, trig3):
        body = induced_ball(trig3, 4.0)
        polar = _polar(body)
        assert isinstance(polar, PolarBody) and polar.base is body


class TestMultiplier:
    def test_sobolev_block_on_sphere(self):
        space = sphere(2)
        diag = multiplier_diagonal(lambda t: 1.0 / t, space, 5)
        assert np.allclose(diag[:3], 0.5)      # eigenvalue 2 with multiplicity 3
        assert np.allclose(diag[3:], 1.0 / 6)  # next eigenvalue 6, block cut at 2

    def test_constant_rate_gives_identity(self):
        space = sphere(2)
        assert np.allclose(multiplier_diagonal(lambda t: 1.0, space, 4), np.ones(4))

    def test_exact_block_boundary(self):
        space = sphere(2)
        n = space.tau(3) - 1  # counts exclude the constant term
        diag = multiplier_diagonal(lambda t: t ** -0.5, space, n)
        assert diag[-1] == pytest.approx(space.eigenvalue(3) ** -0.5)

    def test_nonincreasing_when_regularly_varying(self):
        space = sphere(3)
        diag = multiplier_diagonal(lambda t: t ** -1.2, space, 40)
        assert np.all(np.diff(diag) <= 1e-15)

    def test_spec_validation(self):
        # the length bounds are checked before any level is visited
        space = sphere(2)
        visited = []
        for n in (0, -1, 2**23 + 1):
            with pytest.raises(BadDimensions):
                multiplier_diagonal(visited.append, space, n)
        assert not visited
        assert len(multiplier_diagonal(lambda t: 1.0, space, 2**23)) == 2**23


def test_points_of_the_wrong_length_rejected(trig3):
    # every body checks the row length of its own batch oracles (a projection
    # has no gradient oracle)
    for body in (LpBall(3, 2.0), InducedBall(trig3, 1.5),
                 LinearImageBody(LpBall(3, 1.0), np.diag([1.0, 2.0, 3.0])),
                 ProjectionBody(InducedBall(trig_system(2), 1.0), random_subspace(5, 3, seed=0)),
                 PolarBody(InducedBall(trig3, 4.0))):
        oracles = [body.gauge_many]
        if not isinstance(body, ProjectionBody):
            oracles.append(body.gauge_grad_many)
        for oracle in oracles:
            for length in (body.dim - 1, body.dim + 1):
                with pytest.raises(DimensionMismatch):
                    oracle(np.ones((4, length)))


def test_descriptors_roundtrip(trig3):
    # every kind of configuration descriptor builds the body built directly
    dense = [[2.0, 1.0], [0.0, 1.0]]
    cases = [
        ({"kind": "lp", "dim": 2, "p": "inf"}, LpBall(2, np.inf)),
        ({"kind": "induced", "system": {"kind": "trig", "max_degree": 1}, "p": 1.5},
         induced_ball(trig3, 1.5)),
        ({"kind": "linear_image", "base": {"kind": "lp", "dim": 2},
          "matrix": {"dense": dense}}, linear_image(euclidean_ball(2), np.array(dense))),
    ]
    for desc, body in cases:
        x = np.random.default_rng(0).standard_normal((20, body.dim))
        assert np.array_equal(_build_body(desc).gauge_many(x), body.gauge_many(x))


def _gauge_grad_reference(system, p, pts):
    """InducedBall.gauge_grad_many in one shot over all rows, with no row blocks."""
    vals = system.values
    w = system.weights
    f = pts @ vals
    if np.isinf(p):
        idx = np.argmax(np.abs(f), axis=1)
        rows = np.arange(len(pts))
        return np.max(np.abs(f), axis=1), np.sign(f[rows, idx])[:, None] * vals[:, idx].T
    if p == 1.0:
        return np.abs(f) @ w, (np.sign(f) * w) @ vals.T
    t = _power_in_place(np.maximum(np.abs(f), 1e-300), p - 2.0)
    g = ((t * f * f) @ w) ** (1.0 / p)
    scale = np.maximum(g, 1e-300) ** (p - 1.0)
    return g, ((t * f * w) @ vals.T) / scale[:, None]


@pytest.mark.parametrize("system", [trig_system(4), sphere_harmonics_system(3)],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
def test_induced_gauge_grad_blocks_match_one_shot(system, p):
    nodes = len(system.weights)
    b = max(8, _BLOCK_VALUES // nodes // 8 * 8)
    body = induced_ball(system, p)
    rng = np.random.default_rng(14)
    # A gradient entry is a sum over the nodes whose absolute terms add up to
    # at most max |values| (Hoelder).  BLAS may sum a block in another order
    # than one call over all rows, so entries that cancel can differ in many
    # ulps, but two orders differ by at most 2 * nodes * eps * that total.
    # With OpenBLAS 0.3.31 on x86-64 all of it is bitwise equal here but for
    # sphere-16 at p = inf, whose pole nodes round by 1 ulp (see test_systems).
    grad_tol = 2 * nodes * np.finfo(float).eps * np.max(np.abs(system.values))
    for rows in (0, 1, b - 1, b, b + 1, 3 * b + 7):
        x = rng.standard_normal((rows, system.n))
        g, grad = body.gauge_grad_many(x)
        ref_g, ref_grad = _gauge_grad_reference(system, p, x)
        assert g.shape == (rows,) and grad.shape == (rows, system.n)
        if p == 2.0:  # the Gram factor's path against the node kernel's
            np.testing.assert_allclose(g, ref_g, rtol=TWO_BALL_RTOL)
        else:
            np.testing.assert_array_max_ulp(g, ref_g, maxulp=2)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=grad_tol)
