import math
import subprocess
import sys

import numpy as np
import pytest

from widthlab import harness, widths
from widthlab.bodies import LpBall, euclidean_ball, induced_ball, linear_image
from widthlab.errors import BadDimensions, BadOrder, DimensionMismatch
from widthlab.harness import _gather, _radius_check, _report
from widthlab.manifolds import quaternionic_projective, sphere
from widthlab.systems import trig_prefix_system, trig_system
from widthlab.widths import (brute_force_gelfand, brute_force_kolmogorov,
                             ellipsoid_kolmogorov_exact, l1_section_radius_bound,
                             lq_section_radius_bound, radius_ratio_samples,
                             sobolev_width_order)

SMALL_LQ_GRID = dict(dims=(3, 4), ps=(2.0,), qs=(1.25, 1.5, 2.0), subspaces=3, restarts=24)

# radius_ratio_samples("lq", range(2), **SMALL_LQ_GRID) as computed by
# one independent ascent per section (fixed 300 iterations, no early stop);
# the batched kernel must reproduce the same problems in the same order
PINNED_LQ_RATIOS = [
    3.1517279339905078, 1.5051148509508165, 2.353179337039914,
    5.744633368637994, 4.915634381572366, 5.623513408205495,
    3.0246747712218225, 2.3164677180106423, 4.822196864353626,
    2.4101247198164373, 2.859418381856741, 3.092629369121024,
    3.180821743106089, 2.702698787662015, 1.5887968051919208,
    1.1815952409431443, 1.2250847157038522, 1.3656350499226155,
    1.425104565329911, 1.4092211756880235, 1.275188084878683,
    2.9426692097346505, 2.6494394785175395, 3.0417986738665386,
    2.5027237892353678, 3.4073262962675104, 5.442559598219765,
    3.527638889337325, 4.992649718266947, 3.8866885542076495,
    2.6574152759472622, 1.9401543008431967, 4.7260701321185765,
    2.6812312516191845, 2.0177788637820395, 3.458995989985518,
]


class TestExactOracle:
    def test_tail_semiaxis(self):
        assert ellipsoid_kolmogorov_exact([3.0, 2.0, 1.0], 1) == 2.0
        assert ellipsoid_kolmogorov_exact([3.0, 2.0, 1.0], 0) == 3.0

    def test_full_order_vanishes(self):
        assert ellipsoid_kolmogorov_exact([3.0, 2.0, 1.0], 3) == 0.0

    def test_unit_ball_radius(self):
        assert ellipsoid_kolmogorov_exact([1.0, 1.0, 1.0], 0) == 1.0

    def test_validation(self):
        with pytest.raises(BadOrder):
            ellipsoid_kolmogorov_exact([1.0, 2.0], 1)  # ascending
        with pytest.raises(BadOrder):
            ellipsoid_kolmogorov_exact([2.0, 1.0], 3)

    def test_nan_semiaxis_rejected(self):
        # NaN passes both a <= 0 and the sort test; only a > 0 catches it
        with pytest.raises(BadOrder, match="positive"):
            ellipsoid_kolmogorov_exact([2.0, np.nan], 1)

    def test_non_integer_order_rejected(self):
        with pytest.raises(BadOrder, match="integer"):
            ellipsoid_kolmogorov_exact([3.0, 2.0, 1.0], 1.5)


class TestBruteForce:
    def test_kolmogorov_matches_oracle(self):
        axes = np.array([3.0, 2.0, 1.0])
        body = linear_image(euclidean_ball(3), np.diag(axes))
        for m in range(4):
            res = brute_force_kolmogorov(body, LpBall(3, 2.0), m,
                                         restarts=96, seed=0)
            assert res.value == pytest.approx(
                ellipsoid_kolmogorov_exact(axes, m), abs=1e-6)

    def test_gelfand_matches_oracle(self):
        axes = np.array([3.0, 2.0, 1.0])
        body = linear_image(euclidean_ball(3), np.diag(axes))
        for m in range(4):
            res = brute_force_gelfand(body, LpBall(3, 2.0), m,
                                      restarts=96, seed=0)
            assert res.value == pytest.approx(
                ellipsoid_kolmogorov_exact(axes, m), abs=1e-3)

    def test_gelfand_witness_achieves_value(self):
        # the optimal section is not unique, but the witness must reproduce
        # the reported radius
        from widthlab.stochastic import section_radius

        body = linear_image(euclidean_ball(3), np.diag([3.0, 2.0, 1.0]))
        res = brute_force_gelfand(body, LpBall(3, 2.0), 1, restarts=96, seed=1)
        assert res.witness is not None and res.witness.dim == 2
        achieved = section_radius(body, LpBall(3, 2.0), res.witness)
        assert achieved == pytest.approx(res.value, abs=1e-9)
        assert res.value == pytest.approx(2.0, abs=1e-3)

    def test_unit_ball_any_line_leaves_unit_residual(self):
        res = brute_force_kolmogorov(euclidean_ball(2), LpBall(2, 2.0), 1,
                                     restarts=32, seed=2)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_order_zero_is_radius(self):
        body = linear_image(euclidean_ball(2), np.diag([2.0, 1.0]))
        res = brute_force_kolmogorov(body, LpBall(2, 2.0), 0, restarts=16, seed=0)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_cube_width_in_euclidean(self):
        # best approximating line for the square is a coordinate axis
        res = brute_force_kolmogorov(LpBall(2, np.inf), LpBall(2, 2.0), 1,
                                     restarts=64, seed=3)
        assert res.value == pytest.approx(1.0, abs=5e-3)

    def test_gelfand_induced_ball_in_induced_norm(self):
        # the frame search over a non-Euclidean section radius.  In the plane
        # a codimension-1 section is a line, so d1 is a minimum over one
        # angle: 0.6638544694 by bounded scalar minimization, and above
        # 0.66385 by a 2,000,001-angle grid (the ratio's slope is below 2.5).
        # The upper end is the value an earlier Nelder-Mead search reached.
        system = trig_prefix_system(2)
        body, target = induced_ball(system, 4.0), induced_ball(system, 1.0)
        assert brute_force_gelfand(body, target, 0, seed=0).value == \
            pytest.approx(1.0, abs=1e-12)
        d1 = brute_force_gelfand(body, target, 1, restarts=1, seed=0).value
        assert 0.66385 <= d1 <= 0.6647975676954935

    @pytest.mark.parametrize("search", ["gelfand", "kolmogorov"])
    def test_any_generator_seed_is_accepted(self, search):
        # the ascent-path searches take every seed that as_generator takes,
        # and a seed and the Generator it makes give the same search
        if search == "gelfand":
            system = trig_prefix_system(2)
            args = (induced_ball(system, 4.0), induced_ball(system, 1.0), 1)
            fn, low, high = brute_force_gelfand, 0.66385, 1.0 + 1e-9
        else:
            args = (LpBall(2, np.inf), LpBall(2, 2.0), 1)
            fn, low, high = brute_force_kolmogorov, 1.0 - 1e-9, math.sqrt(2.0)
        by_list = fn(*args, restarts=1, seed=[1, 2]).value
        assert fn(*args, restarts=1, seed=np.random.default_rng([1, 2])).value == by_list
        by_gen = fn(*args, restarts=1, seed=np.random.default_rng(0)).value
        for value in (by_list, by_gen):
            assert low <= value <= high

    @pytest.mark.parametrize("search", [brute_force_gelfand, brute_force_kolmogorov])
    @pytest.mark.parametrize("m", [1, 2])
    def test_bodies_of_other_dimensions_rejected(self, search, m):
        with pytest.raises(DimensionMismatch):
            search(LpBall(3, 2.0), LpBall(2, 1.0), m, restarts=4)

    @pytest.mark.parametrize("search", [brute_force_gelfand, brute_force_kolmogorov])
    def test_non_integer_order_rejected(self, search):
        with pytest.raises(BadOrder, match="integer"):
            search(LpBall(3, 2.0), LpBall(3, 1.0), 1.5, restarts=4)

    @pytest.mark.parametrize("search", [brute_force_gelfand, brute_force_kolmogorov])
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_no_restarts_is_bad_dimensions(self, search, restarts):
        with pytest.raises(BadDimensions, match="restart"):
            search(LpBall(3, 2.0), LpBall(3, 1.0), 1, restarts=restarts)

    def test_width_sequences_nonincreasing(self):
        rng = np.random.default_rng(4)
        axes = np.sort(np.exp(rng.uniform(-1, 1, 4)))[::-1]
        body = linear_image(euclidean_ball(4), np.diag(axes))
        vals_k = [brute_force_kolmogorov(body, LpBall(4, 2.0), m,
                                         restarts=48, seed=5).value
                  for m in range(5)]
        vals_g = [brute_force_gelfand(body, LpBall(4, 2.0), m,
                                      restarts=48, seed=5).value
                  for m in range(5)]
        assert np.all(np.diff(vals_k) <= 1e-6)
        assert np.all(np.diff(vals_g) <= 1e-6)

    def test_five_axes_match_oracle(self):
        # n = 5 is the brute-force cap
        axes = np.array([2.5, 1.7, 1.2, 0.8, 0.45])
        body = linear_image(euclidean_ball(5), np.diag(axes))
        for m in range(1, 5):
            exact = ellipsoid_kolmogorov_exact(axes, m)
            kol = brute_force_kolmogorov(body, LpBall(5, 2.0), m, restarts=32, seed=m)
            gel = brute_force_gelfand(body, LpBall(5, 2.0), m, restarts=32, seed=m)
            assert abs(kol.value - exact) <= 1e-9
            assert abs(gel.value - exact) <= 1e-9

    def test_dimension_cap(self):
        with pytest.raises(BadDimensions):
            brute_force_kolmogorov(euclidean_ball(6), LpBall(6, 2.0), 1)


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy is for the tests alone
    code = ("import sys, widthlab, widthlab.cli; widthlab.sphere_harmonics_system(12); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestKolmogorovByPolars:
    def test_witness_is_complement_of_best_section(self):
        body = linear_image(euclidean_ball(3), np.diag([3.0, 2.0, 1.0]))
        for m in range(4):
            res = brute_force_kolmogorov(body, LpBall(3, 2.0), m, restarts=32, seed=0)
            if m == 0:
                assert res.witness is None
                continue
            assert res.witness.dim == m
            if m == 3:
                continue
            # the residual of every semiaxis off the witness is at most the width
            resid = np.eye(3) * [3.0, 2.0, 1.0] - res.witness.project(np.diag([3.0, 2.0, 1.0]))
            assert np.linalg.norm(resid, 2) == pytest.approx(res.value, abs=1e-9)

    def test_large_ellipsoid(self):
        # the polar's matrix has determinant 1e-15
        body = linear_image(euclidean_ball(5), np.diag([1e3, 1e3, 1e3, 1e3, 1e3]))
        res = brute_force_kolmogorov(body, LpBall(5, 2.0), 2, restarts=8, seed=0)
        assert res.value == pytest.approx(1e3, rel=1e-12)

    def test_cube_in_euclidean_norm_three_dims(self):
        # every section of the polar (the ball) by a line meets the cube's
        # polar gauge (the 1-norm) at least at 1, with equality on the axes
        res = brute_force_kolmogorov(LpBall(3, np.inf), LpBall(3, 2.0), 2, restarts=16,
                                     seed=0)
        assert abs(res.value - 1.0) <= 1e-6
        assert res.witness.dim == 2

    def test_non_structured_body_goes_through_polar_body(self):
        # the induced 2-ball of an orthonormal system is the Euclidean ball,
        # here reached through PolarBody and its Danskin gradient
        body = induced_ball(trig_prefix_system(2), 2.0)
        res = brute_force_kolmogorov(body, LpBall(2, 2.0), 1, restarts=4, seed=0)
        assert res.value == pytest.approx(1.0, abs=1e-6)


def _duality_gap(matrix, m, restarts, seed):
    """|Kolmogorov width of A B2 - Gelfand width of A^T B2|, both in l2."""
    a = np.asarray(matrix, dtype=float)
    n = len(a)
    kol = brute_force_kolmogorov(linear_image(euclidean_ball(n), a), LpBall(n, 2.0), m,
                                 restarts=restarts, seed=seed)
    gel = brute_force_gelfand(linear_image(euclidean_ball(n), a.T), LpBall(n, 2.0), m,
                              restarts=restarts, seed=seed)
    return abs(kol.value - gel.value)


class TestDuality:
    def test_diagonal_case(self):
        assert _duality_gap(np.diag([3.0, 2.0, 1.0]), 1, restarts=64, seed=0) <= 1e-2

    def test_identity_all_orders(self):
        for m in (1, 2):
            assert _duality_gap(np.eye(3), m, restarts=32, seed=1) <= 1e-2

    def test_full_order(self):
        assert _duality_gap(np.diag([2.0, 1.0]), 2, restarts=16, seed=2) <= 1e-2

    def test_dense_matrix(self):
        a = np.array([[2.0, 0.5, 0.0], [0.3, 1.0, -0.4], [0.0, 0.2, 0.7]])
        assert _duality_gap(a, 1, restarts=32, seed=3) <= 1e-6


class TestFourierTail:
    # the worst L_2 error of keeping m coefficients of a nonincreasing
    # multiplier is the Kolmogorov width of its diagonal
    def test_harmonic_sequence(self):
        seq = 1.0 / np.arange(1, 10)
        assert ellipsoid_kolmogorov_exact(seq, 1) == 0.5
        assert ellipsoid_kolmogorov_exact(seq, 0) == 1.0
        assert ellipsoid_kolmogorov_exact(seq, 9) == 0.0

    def test_numeric_maximization_agrees(self):
        lam = np.array([1.0, 0.7, 0.3, 0.1])
        for m in range(4):
            tail = np.diag(np.concatenate([np.zeros(m), lam[m:]]))
            numeric = float(np.linalg.norm(tail, 2))
            assert abs(numeric - ellipsoid_kolmogorov_exact(lam, m)) < 1e-9


class TestRadiusBounds:
    def test_identity_matrix_p2(self):
        system = trig_system(1)
        assert l1_section_radius_bound(np.eye(3), system, 2.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_small_axis_scales_bound(self):
        system = trig_system(1)
        a = np.diag([1.0, 1.0, 0.5])
        assert l1_section_radius_bound(a, system, 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_dominates_p4(self):
        # E <= 1.3161..., so the bound value sits above 1.3161^(-3/2)
        system = trig_system(1)
        val = l1_section_radius_bound(np.eye(3), system, 4.0)
        assert val >= 1.3161 ** -1.5 - 2e-3

    def test_lq_identity_case(self):
        system = trig_system(1)
        assert lq_section_radius_bound(np.eye(3), system, 2.0, 2.0, 3) \
            == pytest.approx(1.0, abs=1e-9)

    def test_lq_plugin_scaling(self):
        system = trig_prefix_system(4)
        a = 2.0 * np.eye(4)
        val = lq_section_radius_bound(a, system, 2.0, 2.0, 2)
        assert val == pytest.approx(2.0, abs=1e-8)  # rho=2 and both expectations 1

    def test_parameter_validation(self):
        system = trig_system(1)
        for p in (1.5, math.nan):
            with pytest.raises(BadDimensions):
                l1_section_radius_bound(np.eye(3), system, p)
            with pytest.raises(BadDimensions):
                lq_section_radius_bound(np.eye(3), system, p, 1.5, 2)
        with pytest.raises(BadDimensions):
            lq_section_radius_bound(np.eye(3), system, 2.0, 1.0, 2)

    def test_matrix_must_match_the_system(self):
        # trig-3 has 3 functions: a 5 x 5 or 4 x 4 matrix is not its image map
        with pytest.raises(DimensionMismatch):
            l1_section_radius_bound(np.eye(5), trig_system(1), 2.0)
        with pytest.raises(DimensionMismatch):
            lq_section_radius_bound(np.eye(4), trig_system(1), 2.0, 1.5, 2)

    @pytest.mark.parametrize("seeds, subspaces", [([1], 0), ([], 1)], ids=["no-subspace", "no-seed"])
    def test_empty_ratio_grid_rejected(self, seeds, subspaces):
        with pytest.raises(BadDimensions):
            radius_ratio_samples("l1", seeds, [3], [2.0], [], subspaces, 8)

    def test_calibrate_then_validate_small_grid(self, monkeypatch):
        monkeypatch.setattr(harness, "RADIUS_GRID", dict(dims=(3, 4), ps=(2.0,), qs=(),
                                                         subspaces=2, restarts=16))
        report = _report("radius-l1", "", *_gather(_radius_check("l1", range(0, 4), range(4, 8))))
        assert report.details["constant"] > 0
        assert report.details["training_trials"] == 16
        assert (report.trials, report.violations) == (16, 0)
        assert report.worst_margin > 0

    def test_batched_ratios_match_pinned_values(self, monkeypatch):
        # the pins' regime: every problem runs all MAX_ITERS passes
        monkeypatch.setattr(widths._optim, "PATIENCE", widths._optim.MAX_ITERS)
        ratios = radius_ratio_samples("lq", range(0, 2), **SMALL_LQ_GRID)
        assert ratios == pytest.approx(PINNED_LQ_RATIOS, rel=1e-6)

    @pytest.mark.parametrize("ratios", [[1.0, float("nan")], [float("nan"), 1.0],
                                        [0.0, 1.0], [-float("inf"), 1.0]])
    def test_calibration_rejects_bad_minimum(self, monkeypatch, ratios):
        # a NaN, zero or negative training minimum fails every validation ratio;
        # one call returns the training ratios, then the same ones to validate
        monkeypatch.setattr(widths, "radius_ratio_samples", lambda *a, **k: ratios * 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            report = _report("radius-l1", "", *_gather(_radius_check("l1", range(2), range(2, 4))))
        assert not report.passed
        assert report.violations == report.trials == 2

    def test_non_finite_ratio_is_a_violation(self, monkeypatch):
        for bad in (float("nan"), float("inf")):
            ratios = [4.0, 4.0, bad, 6.0]  # one training seed, then three to validate
            monkeypatch.setattr(widths, "radius_ratio_samples", lambda *a, **k: ratios)
            report = _report("radius-l1", "", *_gather(_radius_check("l1", range(1), range(1, 4))))
            assert report.details["constant"] == 3.0
            assert (report.trials, report.violations) == (3, 1)
            assert math.isnan(report.worst_margin)


# the exact slopes of sobolev_width_order(..., range(4, 13)) of the former
# inline staircase, which the shared multiplier diagonal must reproduce
PINNED_EXACT_SLOPES = {
    ("sphere-d2", 1.0): -0.4869902615031181,
    ("sphere-d2", 2.0): -0.973980523006236,
    ("quaternionic_projective-d8", 1.0): -0.1261659566007181,
    ("quaternionic_projective-d8", 2.0): -0.25233191320143594,
}


class TestSobolevOrder:
    @pytest.mark.parametrize("space", [sphere(2), quaternionic_projective(8)],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_exact_slopes_match_pinned_values(self, space, gamma):
        _, slope = sobolev_width_order(space, gamma, range(4, 13))
        assert slope == PINNED_EXACT_SLOPES[space.name, gamma]

    def test_bound_slope_exact(self):
        space = sphere(2)
        for gamma in (1.0, 2.0):
            slope, _ = sobolev_width_order(space, gamma, range(4, 13))
            assert slope == pytest.approx(-gamma / 2.0, abs=1e-9)

    def test_exact_widths_slope(self):
        space = sphere(2)
        for gamma in (1.0, 2.0):
            _, slope = sobolev_width_order(space, gamma, range(4, 13))
            assert slope == pytest.approx(-gamma / 2.0, abs=0.05)

    def test_channels_agree(self):
        space = sphere(2)
        sb, se = sobolev_width_order(space, 2.0, range(4, 13))
        assert abs(sb - se) <= 0.05

    def test_tiny_gamma_flattens(self):
        slope, _ = sobolev_width_order(sphere(2), 1e-6, range(4, 13))
        assert abs(slope) < 1e-3

    def test_validation(self):
        with pytest.raises(BadDimensions):
            sobolev_width_order(sphere(2), -1.0, range(4, 13))
        with pytest.raises(BadDimensions):
            sobolev_width_order(sphere(2), 1.0, [4])

    def test_repeated_level_rejected(self):
        # one level twice is one point: no slope to fit
        with pytest.raises(BadDimensions, match="distinct"):
            sobolev_width_order(sphere(2), 1.0, [3, 3])
