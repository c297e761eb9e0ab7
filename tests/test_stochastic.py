import math
import weakref

import numpy as np
import pytest

from widthlab import stochastic
from widthlab.bodies import Body, LpBall, euclidean_ball, induced_ball, linear_image
from widthlab.errors import BadDimensions, FloatRange, VarianceBlowup
from widthlab.linalg import orthonormalize, random_subspace
from widthlab.stochastic import (_CHUNK, _Z95, EstimateWithCI, _brunn_margin, _mean, _moments,
                                 _slice_length, _sphere_chunks, _stream,
                                 expectation_norm, expected_norm_bound, greedy_net, greedy_nets,
                                 haar_sphere_sample, mc_volume_ratio,
                                 projection_volume_ratio, section_radius)
from widthlab.systems import trig_prefix_system, trig_system


class TestHaarSampling:
    def test_unit_norms(self):
        pts = haar_sphere_sample(4, 1000, seed=0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_one_dimensional_signs(self):
        pts = haar_sphere_sample(1, 4000, seed=1)
        assert set(np.unique(pts)) == {-1.0, 1.0}
        assert abs(pts.mean()) < 3.0 / math.sqrt(4000)

    def test_mean_first_coordinate_small(self):
        pts = haar_sphere_sample(3, 100_000, seed=2)
        assert abs(pts[:, 0].mean()) < 0.01

    def test_deterministic(self):
        assert np.array_equal(haar_sphere_sample(5, 100, seed=9),
                              haar_sphere_sample(5, 100, seed=9))


class TestExpectationNorm:
    def test_euclidean_ball_is_exact(self):
        est = expectation_norm(euclidean_ball(4), samples=2000, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.half_width == pytest.approx(0.0, abs=1e-9)

    def test_induced_p2_is_one(self):
        est = expectation_norm(induced_ball(trig_system(1), 2.0), samples=2000, seed=1)
        assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_p4_below_closed_form_bound(self):
        est = expectation_norm(induced_ball(trig_system(1), 4.0), samples=50_000, seed=2)
        assert est.value <= expected_norm_bound(4.0) + est.half_width

    def test_minimum_samples(self):
        with pytest.raises(BadDimensions):
            expectation_norm(euclidean_ball(2), samples=10)

    def test_mean_out_of_float_range_raises(self):
        # an infinite gauge on some rows made the mean inf with a NaN half width
        class Unbounded(Body):
            dim, label = 3, "unbounded"

            def gauge_many(self, points):
                g = np.linalg.norm(points, axis=1)
                g[::7] = np.inf
                return g

        with pytest.raises(FloatRange, match="float range"):
            expectation_norm(Unbounded(), samples=1000)

    @pytest.mark.parametrize("exponent", [520, -520])
    def test_half_width_with_squares_out_of_range(self, exponent):
        # gauges of 2^±520 have squares outside the normal range; unscaled,
        # 2^520 gave a NaN half width (as 1e160 did) and 2^-520 lost its bits
        ref = expectation_norm(LpBall(2, 1.0), samples=1000, seed=4)
        body = linear_image(LpBall(2, 1.0), 2.0 ** -exponent * np.eye(2))
        est = expectation_norm(body, samples=1000, seed=4)
        assert est.value == math.ldexp(ref.value, exponent)
        assert est.half_width == math.ldexp(ref.half_width, exponent) > 0

    def test_stream_is_first_spawned_child(self):
        # every Monte-Carlo number of the package depends on this derivation
        body = induced_ball(trig_system(1), 4.0)
        est = expectation_norm(body, samples=4000, seed=3)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        g = body.gauge_many(haar_sphere_sample(3, 4000, rng))
        assert est == expectation_norm(body, samples=4000, seed=3)
        assert est.value == pytest.approx(g.mean(), rel=1e-14)


class TestExpectedNormBound:
    def test_exact_at_p2(self):
        assert expected_norm_bound(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_oracle_at_p4(self):
        oracle = 2**0.5 * math.pi ** (-0.125) * math.gamma(2.5) ** 0.25
        assert expected_norm_bound(4.0) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(1.3161, abs=1e-4)

    def test_sqrt_p_growth(self):
        assert 1.6 <= expected_norm_bound(16.0) / expected_norm_bound(4.0) <= 2.4

    def test_requires_p_at_least_two(self):
        for p in (1.5, math.nan):
            with pytest.raises(BadDimensions):
                expected_norm_bound(p)

    def test_unbounded_at_p_inf(self):
        assert expected_norm_bound(math.inf) == math.inf


class TestVolumeRatio:
    def test_self_ratio_is_one(self):
        est = mc_volume_ratio(euclidean_ball(3), euclidean_ball(3),
                              samples=2000, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.half_width == pytest.approx(0.0, abs=1e-12)

    def test_square_against_disk(self):
        est = mc_volume_ratio(LpBall(2, np.inf), euclidean_ball(2),
                              samples=200_000, seed=1)
        assert est.value == pytest.approx(4.0 / math.pi, rel=0.03)

    def test_determinant_scaling(self):
        body = linear_image(euclidean_ball(2), np.diag([2.0, 1.0]))
        est = mc_volume_ratio(body, euclidean_ball(2), samples=200_000, seed=2)
        assert est.value == pytest.approx(2.0, rel=0.03)

    def test_linear_image_of_induced_body(self):
        system = trig_system(1)
        base = induced_ball(system, 4.0)
        a = np.diag([1.5, 0.8, 1.2])
        est = mc_volume_ratio(linear_image(base, a), base, samples=150_000, seed=3)
        assert est.value == pytest.approx(abs(np.linalg.det(a)),
                                          abs=3 * est.half_width + 0.01)

    def test_dimension_cap(self):
        with pytest.raises(BadDimensions):
            mc_volume_ratio(euclidean_ball(11), euclidean_ball(11), samples=2000)

    def test_variance_blowup_raises(self):
        # a 20:1 ellipsoid in n=10: the integrand spans 13 orders of magnitude
        body = linear_image(euclidean_ball(10), np.diag([20.0] + [1.0] * 9))
        with pytest.raises(VarianceBlowup):
            mc_volume_ratio(body, euclidean_ball(10), samples=20_000, seed=7)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_mean_out_of_float_range_raises(self, scale):
        # gauge^(-2) underflows to 0 (the mean was divided by) or overflows to
        # inf (the value was inf with a NaN half width); at 1e-200 the l_2
        # kernel's own |x|^2 also overflows, which the volume estimate leaves to
        # the caller's error state
        body = linear_image(LpBall(2, 2.0), scale * np.eye(2))
        with np.errstate(over="ignore"), pytest.raises(FloatRange, match="float range"):
            mc_volume_ratio(body, LpBall(2, 2.0), samples=1000)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_ratio_in_range_with_squares_out_of_range(self, scale):
        # gauge^(-2) is 1e±200 here, so its unscaled square leaves the float range
        body = linear_image(LpBall(2, 2.0), scale * np.eye(2))
        est = mc_volume_ratio(body, LpBall(2, 2.0), samples=1000)
        assert est.value == pytest.approx(scale ** 2, rel=1e-12)
        assert 0.0 <= est.half_width < 1e-6 * est.value

    def test_negative_half_width_rejected(self):
        with pytest.raises(BadDimensions):
            EstimateWithCI(1.0, -0.1, 10)

    def test_nan_half_width_rejected(self):
        with pytest.raises(BadDimensions, match="must be >= 0"):
            EstimateWithCI(1.0, math.nan, 5)


class _Constant(Body):
    """A test body whose gauge is ``level`` at every point."""

    label = "constant"

    def __init__(self, dim, level):
        self.dim, self.level = dim, level

    def gauge_many(self, points):
        return np.full(len(points), self.level)


class TestMoments:
    """The one accumulator under every sphere mean and volume ratio, against
    two-pass references; raw sums of squares gave a constant integrand a
    half width of 4.7e-11 (3,000 copies of 0.1)."""

    @pytest.mark.parametrize("sizes", [[3000], [1000, 1500, 500]], ids=["one", "three"])
    def test_constant_mean_has_zero_half_width(self, sizes):
        est = _mean(np.full(k, 0.1) for k in sizes)
        assert est.value == pytest.approx(0.1, rel=1e-15)
        assert (est.half_width, est.samples) == (0.0, 3000)

    def test_constant_gauges_across_a_chunk_have_zero_half_width(self):
        mean = expectation_norm(_Constant(3, 0.1), samples=70_000, seed=1)
        ratio = mc_volume_ratio(_Constant(3, 0.1), _Constant(3, 0.5), samples=70_000, seed=1)
        assert mean.samples == ratio.samples == 70_000 > _CHUNK
        assert (mean.value, mean.half_width) == (pytest.approx(0.1, rel=1e-15), 0.0)
        assert (ratio.value, ratio.half_width) == (pytest.approx(125.0, rel=1e-14), 0.0)

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_induced_two_ball_ratio_half_width(self, seed):
        # the per-sample ratios spread by about 3e-16; raw sums reported
        # 5.3e-10 at seeds 8, 9 and 10
        est = mc_volume_ratio(induced_ball(trig_system(1), 2.0), euclidean_ball(3),
                              samples=3000, seed=seed)
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.half_width <= 1e-14

    def test_mean_over_three_chunks_matches_two_pass(self):
        data = np.random.default_rng(0).lognormal(size=5000)
        est = _mean(part.copy() for part in np.split(data, [1200, 3100]))
        assert est.value == pytest.approx(np.mean(data), rel=1e-12)
        assert est.half_width == pytest.approx(_Z95 * math.sqrt(np.var(data) / len(data)),
                                               rel=1e-12)

    def test_moments_over_three_chunks_match_two_pass(self):
        rng = np.random.default_rng(1)
        x = rng.lognormal(size=5000)
        data = np.stack([x, 1e30 * (x + rng.standard_normal(5000))])
        total, means, cov, shift = _moments(part.copy()
                                            for part in np.split(data, [1200, 3100], axis=1))
        unscale = np.ldexp(1.0, -np.array(shift))
        assert total == 5000
        assert np.allclose(means * unscale, data.mean(axis=1), rtol=1e-12, atol=0)
        assert np.allclose(cov * np.outer(unscale, unscale), np.cov(data, bias=True),
                           rtol=1e-12, atol=0)

    def test_ratio_over_three_chunks_matches_two_pass(self):
        body, reference, samples = LpBall(2, np.inf), LpBall(2, 1.0), 2 * _CHUNK + 1000
        est = mc_volume_ratio(body, reference, samples=samples, seed=5)
        u = np.concatenate(list(_sphere_chunks(_stream(5), 2, samples)))
        xy = np.stack([body.gauge_many(u), reference.gauge_many(u)]) ** -2.0
        mx, my = xy.mean(axis=1)
        grad = np.array([1.0 / mx, -1.0 / my])  # delta method for log(mx / my)
        half = _Z95 * mx / my * math.sqrt(grad @ np.cov(xy, bias=True) @ grad / samples)
        assert est.samples == samples
        assert est.value == pytest.approx(mx / my, rel=1e-12)
        assert est.half_width == pytest.approx(half, rel=1e-12)


class TestHeldStream:
    """The last seeded stream of at most one chunk is held for the next call."""

    BODY = LpBall(3, 4.0)

    @staticmethod
    def _count_draws(monkeypatch, check=lambda: None):
        sample, draws = stochastic.haar_sphere_sample, []

        def counted(*args):
            check()
            draws.append(args)
            return sample(*args)

        monkeypatch.setattr(stochastic, "haar_sphere_sample", counted)
        return draws

    def test_held_chunk_is_read_only(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_held", None)
        expectation_norm(self.BODY, samples=1000, seed=21)
        assert not stochastic._held[1].flags.writeable
        assert haar_sphere_sample(3, 1000, seed=21).flags.writeable

    def test_writing_gauge_raises_and_leaves_the_stream(self, monkeypatch):
        class WritingBall(LpBall):
            def gauge_many(self, points):
                points *= 2.0
                return super().gauge_many(points)

        monkeypatch.setattr(stochastic, "_held", None)
        ref = expectation_norm(self.BODY, samples=1000, seed=22)
        with pytest.raises(ValueError, match="read-only"):
            expectation_norm(WritingBall(3, 4.0), samples=1000, seed=22)
        draws = self._count_draws(monkeypatch)
        assert expectation_norm(self.BODY, samples=1000, seed=22) == ref
        assert draws == []

    def test_generator_seed_consumed_as_before(self, monkeypatch):
        # a Generator seed draws one integer seed from itself, on a miss and
        # on the hit after it
        derived = int(np.random.default_rng(23).integers(2**63))
        ref = expectation_norm(self.BODY, samples=1000, seed=derived)
        monkeypatch.setattr(stochastic, "_held", None)
        for _ in range(2):
            rng, twin = np.random.default_rng(23), np.random.default_rng(23)
            twin.integers(2**63)
            assert expectation_norm(self.BODY, samples=1000, seed=rng) == ref
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_long_stream_holds_nothing(self):
        expectation_norm(self.BODY, samples=1000, seed=24)
        assert stochastic._held is not None
        expectation_norm(self.BODY, samples=65_537, seed=24)
        assert stochastic._held is None

    def test_miss_releases_the_held_chunk_first(self, monkeypatch):
        expectation_norm(self.BODY, samples=1000, seed=25)
        held = weakref.ref(stochastic._held[1])
        released = []
        draws = self._count_draws(monkeypatch, lambda: released.append(held() is None))
        mc_volume_ratio(self.BODY, euclidean_ball(3), samples=1000, seed=26)
        assert len(draws) == 1 and released == [True]


class TestSectionVolumes:
    def test_projection_of_ellipsoid(self):
        from widthlab.bodies import ProjectionBody

        body = linear_image(euclidean_ball(3), np.diag([2.0, 1.0, 1.0]))
        sub = orthonormalize([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        proj = ProjectionBody(body, sub)
        # shadow of the ellipsoid is the ellipse with semiaxes (2, 1)
        assert proj.gauge(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-6)
        assert proj.gauge(np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-6)
        est = projection_volume_ratio(body, sub, samples=400, seed=3)
        assert est.value == pytest.approx(2.0, abs=4 * est.half_width + 0.05)


class TestSectionRadius:
    def test_semiaxis(self):
        body = linear_image(euclidean_ball(2), np.diag([2.0, 1.0]))
        sub = orthonormalize([[1.0, 0.0]])
        assert section_radius(body, euclidean_ball(2), sub) == pytest.approx(2.0)

    def test_diagonal_line(self):
        body = linear_image(euclidean_ball(2), np.diag([2.0, 1.0]))
        sub = orthonormalize([[1.0, 1.0]])
        assert section_radius(body, euclidean_ball(2), sub) == pytest.approx(
            math.sqrt(8.0 / 5.0), abs=1e-10)

    def test_generic_path_matches_exact(self):
        # same ellipsoid as an image of an induced 2-ball
        system = trig_prefix_system(2)
        body = linear_image(induced_ball(system, 2.0), np.diag([2.0, 1.0]))
        sub = orthonormalize([[1.0, 1.0]])
        val = section_radius(body, induced_ball(system, 2.0), sub,
                             restarts=16, seed=5)
        assert val == pytest.approx(math.sqrt(8.0 / 5.0), abs=1e-6)

    def test_induced_two_balls_take_the_closed_form(self, monkeypatch):
        system = trig_prefix_system(5)
        body = linear_image(induced_ball(system, 2.0), np.diag([2.0, 1.5, 1.0, 0.7, 0.5]))
        target = induced_ball(system, 2.0)
        frames = np.array([random_subspace(5, 3, seed=k).frame for k in range(4)])
        starts = np.random.default_rng(3).standard_normal((16, 3))
        # a long ascent: the default stall stop leaves up to about 1e-6 on the table
        monkeypatch.setattr(stochastic._optim, "MAX_ITERS", 3000)
        monkeypatch.setattr(stochastic._optim, "PATIENCE", 400)
        ascent = stochastic._optim.ratio_ascent(
            target, body, np.broadcast_to(starts, (4, 16, 3)), num_maps=frames, den_maps=frames)
        monkeypatch.setattr(stochastic._optim, "ratio_ascent", None)  # no ascent call
        closed = stochastic._section_radii(body, target, frames, frames, starts)
        np.testing.assert_allclose(closed, ascent, rtol=1e-9)

    def test_same_body_gives_one(self):
        system = trig_system(1)
        body = induced_ball(system, 4.0)
        sub = random_subspace(3, 2, seed=6)
        assert section_radius(body, body, sub, restarts=12, seed=0) == pytest.approx(
            1.0, abs=1e-8)

    def test_restart_floor(self):
        with pytest.raises(BadDimensions):
            section_radius(euclidean_ball(2), euclidean_ball(2),
                           orthonormalize([[1.0, 0.0]]), restarts=4)

    def test_dimensions_must_agree(self):
        # a target or subspace of another dimension is a caller error, not a matmul error
        sub = random_subspace(3, 2, seed=0)
        with pytest.raises(BadDimensions, match="share a dimension"):
            section_radius(euclidean_ball(3), euclidean_ball(2), sub)
        with pytest.raises(BadDimensions, match="share a dimension"):
            section_radius(euclidean_ball(2), euclidean_ball(2), sub)


class TestGreedyNet:
    def test_one_dimensional_interval(self):
        interval = LpBall(1, np.inf)
        report = greedy_net(interval, euclidean_ball(1), 1.0, seed=0)
        assert 2 <= report.net_size <= 3
        assert report.certified
        gaps = [abs(a[0] - b[0]) for i, a in enumerate(report.net_points)
                for b in report.net_points[i + 1:]]
        assert min(gaps) >= 1.0 - 1e-9

    def test_big_delta_single_point(self):
        report = greedy_net(euclidean_ball(2), euclidean_ball(2), 2.2, seed=1)
        assert report.net_size == 1
        assert report.certified

    def test_chain_inequality(self):
        ref = euclidean_ball(2)
        for body in (euclidean_ball(2), LpBall(2, np.inf)):
            for delta in (0.25, 0.5, 1.0):
                for seed in range(3):
                    fine = greedy_net(body, ref, delta, seed=seed)
                    coarse = greedy_net(body, ref, 2 * delta, seed=seed)
                    assert coarse.net_size <= fine.net_size
                    assert fine.certified

    def test_points_inside_body(self):
        body = LpBall(2, np.inf)
        report = greedy_net(body, euclidean_ball(2), 0.5, seed=2)
        assert np.all(body.gauge_many(report.net_points) <= 1.0 + 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(BadDimensions):
            greedy_net(euclidean_ball(7), euclidean_ball(7), 0.5)
        with pytest.raises(BadDimensions):
            greedy_net(euclidean_ball(2), euclidean_ball(2), 0.0)

    def test_reference_of_another_dimension_rejected(self):
        # it used to return a "certified" net measured in the wrong gauge
        with pytest.raises(BadDimensions, match="one dimension"):
            greedy_net(euclidean_ball(2), euclidean_ball(3), 0.5)

    def test_nets_come_in_the_order_of_the_scales(self):
        ball = euclidean_ball(2)
        coarse, fine, again = greedy_nets(ball, ball, (1.0, 0.5, 1.0), seed=3)
        assert coarse.net_size < fine.net_size
        assert np.array_equal(fine.net_points[:coarse.net_size], coarse.net_points)
        assert again is coarse
        with pytest.raises(BadDimensions):
            greedy_nets(ball, ball, (), seed=3)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, np.float64(-math.inf)])
    def test_non_finite_delta_rejected(self, delta):
        # -inf settles no row, so the traversal would never end; NaN compares
        # false with every distance, so it would settle every row at once
        with pytest.raises(BadDimensions):
            greedy_net(euclidean_ball(2), euclidean_ball(2), delta)


_SUB = random_subspace(3, 2, seed=0)


@pytest.mark.parametrize("call", [
    lambda: mc_volume_ratio(euclidean_ball(2), euclidean_ball(2), samples=0),
    lambda: mc_volume_ratio(euclidean_ball(2), euclidean_ball(2), samples=-3),
    lambda: mc_volume_ratio(euclidean_ball(2), euclidean_ball(2), samples=True),
    lambda: projection_volume_ratio(euclidean_ball(3), _SUB, samples=0),
    lambda: projection_volume_ratio(euclidean_ball(3), _SUB, samples=100.0),
    lambda: expectation_norm(euclidean_ball(3), samples=1000.5),
    lambda: expectation_norm(euclidean_ball(3), samples=999),
    lambda: haar_sphere_sample(3, -1),
    lambda: haar_sphere_sample(3, 2.0),
], ids=["volume-0", "volume-negative", "volume-bool", "projection-0", "projection-float",
        "expectation-fraction", "expectation-999", "haar-negative", "haar-float"])
def test_bad_sample_counts_rejected(call):
    with pytest.raises(BadDimensions):
        call()


def test_zero_haar_samples_allowed():
    assert haar_sphere_sample(3, np.int64(0)).shape == (0, 3)


class TestBrunnSections:
    def test_disk_chord_lengths(self):
        # slice of the unit disk at height z has half-length sqrt(1 - z^2)
        sub = orthonormalize([[1.0, 0.0]])
        assert _slice_length(euclidean_ball(2), sub, np.zeros(2)) == pytest.approx(1.0, abs=1e-15)
        assert _slice_length(euclidean_ball(2), sub, np.array([0.0, 0.5])) == pytest.approx(
            math.sqrt(0.75), abs=1e-15)

    def test_one_dim_slice_is_the_two_point_mean(self):
        # the sheared square's chord at height 0.5 runs from -0.75 to 1.25:
        # r+ = 1.25 and r- = 0.75 differ, and the exact slice is their mean
        body = linear_image(LpBall(2, np.inf), [[1.0, 0.5], [0.0, 1.0]])
        length = _slice_length(body, orthonormalize([[1.0, 0.0]]), np.array([0.0, 0.5]))
        assert length == pytest.approx((1.25 + 0.75) / 2, abs=1e-15)

    def test_disk_offsets(self):
        sub = orthonormalize([[1.0, 0.0]])
        central, worst = _brunn_margin(euclidean_ball(2), sub,
                                       [np.array([0.0, 0.5]), np.array([0.0, 0.9])])
        assert central == pytest.approx(1.0, abs=1e-15)
        assert worst == pytest.approx(1.0 - math.sqrt(0.75), abs=1e-15)  # the nearer offset

    def test_cube_slices_constant(self):
        sub = orthonormalize([[1.0, 0.0]])
        assert _brunn_margin(LpBall(2, np.inf), sub,
                             [np.array([0.0, 0.3]), np.array([0.0, 0.8])]) == (1.0, 0.0)

    def test_zero_offset_equality(self):
        sub = orthonormalize([[1.0, 0.0, 0.0]])
        body = induced_ball(trig_system(1), 4.0)
        assert _brunn_margin(body, sub, [np.zeros(3)])[1] == 0.0

    def test_empty_offset_section(self):
        sub = orthonormalize([[1.0, 0.0]])
        assert _slice_length(euclidean_ball(2), sub, np.array([0.0, 1.5])) == 0.0
