import math

import numpy as np
import pytest

from widthlab.errors import BadDimensions
from widthlab.manifolds import (all_families, cayley_plane, complex_projective,
                                multiplier_diagonal, quaternionic_projective,
                                real_projective, sobolev_multiplier, sphere)


class TestEigenvalues:
    def test_sphere_two(self):
        s2 = sphere(2)
        assert s2.eigenvalue(3) == 12.0  # alpha = beta = 0: k(k+1)
        assert s2.eigenvalue(0) == 0.0

    def test_cayley_first(self):
        assert cayley_plane().eigenvalue(1) == 12.0  # alpha + beta + 1 = 11

    def test_real_projective_even_degrees(self):
        # degrees lift only when even: theta_k = 2k(2k + d - 1)
        p3 = real_projective(3)
        s3 = sphere(3)
        for k in range(1, 6):
            assert p3.eigenvalue(k) == s3.eigenvalue(2 * k)

    def test_strictly_increasing(self):
        for space in all_families():
            theta = [space.eigenvalue(k) for k in range(30)]
            assert np.all(np.diff(theta) > 0)

    def test_ratio_approaches_one(self):
        for space in all_families():
            for n in range(10, 80):
                ratio = space.eigenvalue(n + 1) / space.eigenvalue(n)
                assert abs(ratio - 1.0) <= 3.0 / n


class TestEigenspaceDims:
    def test_sphere_two_classical(self):
        s2 = sphere(2)
        assert [s2.eigenspace_dim(k) for k in range(4)] == [1, 3, 5, 7]
        assert s2.eigenspace_dim(2) == 5

    def test_sphere_three_squares(self):
        s3 = sphere(3)
        assert s3.eigenspace_dim(1) == 4
        assert [s3.eigenspace_dim(k) for k in range(5)] == [1, 4, 9, 16, 25]

    def test_cayley_exceptional_reps(self):
        cay = cayley_plane()
        assert cay.eigenspace_dim(1) == 26
        assert cay.eigenspace_dim(2) == 324

    def test_complex_projective_cube(self):
        # d=4: dimensions (k+1)^3
        p4 = complex_projective(4)
        assert [p4.eigenspace_dim(k) for k in range(4)] == [1, 8, 27, 64]

    def test_sphere_dims_exact_in_pinned_range(self):
        # harmonic polynomials of degree k on S^d: C(k+d, d) - C(k+d-2, d);
        # the rounded lgamma form matches them through d = 11, k = 64 and
        # first rounds wrongly at d = 12, k = 63
        def exact(d, k):
            return math.comb(k + d, d) - (math.comb(k + d - 2, d) if k >= 2 else 0)

        for d in range(2, 12):
            space = sphere(d)
            assert [space.eigenspace_dim(k) for k in range(65)] == \
                [exact(d, k) for k in range(65)]
        assert sphere(12).eigenspace_dim(63) == exact(12, 63) + 1

    def test_dimension_beyond_float_range_is_bad_dimensions(self):
        with pytest.raises(BadDimensions, match="float range"):
            sphere(10_000_000).eigenspace_dim(64)

    def test_sphere_cumulative_identity(self):
        s2 = sphere(2)
        for n in (0, 3, 10, 25):
            assert s2.tau(n) == (n + 1) ** 2

    def test_growth_order(self):
        # dims track (k + (alpha+beta+1)/2)^(d-1) within 20% over k in [10, 40]
        for space in all_families():
            shift = (space.alpha + space.beta + 1.0) / 2.0
            ks = np.arange(10, 41)
            degs = 2 * ks if space.even_only else ks
            ratios = np.array([
                space.eigenspace_dim(int(k)) / (deg + shift) ** (space.d - 1)
                for k, deg in zip(ks, degs)
            ])
            assert ratios.max() / ratios.min() < 1.2


class TestWeylRatio:
    def test_sphere_two_values(self):
        s2 = sphere(2)
        assert s2.weyl_ratio(10) == pytest.approx(121.0 / 110.0)
        assert s2.weyl_ratio(100) == pytest.approx(1.01, abs=2e-3)
        assert s2.weyl_ratio(1) > 0

    def test_consecutive_drift_small(self):
        for space in all_families():
            ratios = np.array([space.weyl_ratio(n) for n in range(20, 61)])
            drift = np.abs(ratios[1:] / ratios[:-1] - 1.0)
            assert drift.max() < 0.2

    def test_tau_ratio_approaches_one(self):
        # the step ratio is roughly 1 + d/N, so the 1.25 band is reached once
        # N passes a few multiples of the dimension
        for space in all_families():
            start = max(20, 5 * space.d)
            ratios = [space.tau(n + 1) / space.tau(n)
                      for n in range(start, start + 41, 10)]
            assert all(r < 1.25 for r in ratios)
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestFactories:
    def test_dimension_validation(self):
        with pytest.raises(BadDimensions):
            sphere(1)
        with pytest.raises(BadDimensions):
            complex_projective(5)
        with pytest.raises(BadDimensions):
            quaternionic_projective(10)

    def test_names(self):
        assert sphere(2).name == "sphere-d2"
        assert cayley_plane().name == "cayley_plane-d16"


class TestSobolevMultiplier:
    def test_first_block_on_sphere(self):
        diag = multiplier_diagonal(sobolev_multiplier(2.0), sphere(2), 3)
        assert np.allclose(diag, 0.5)  # theta_1 = 2, multiplicity 3

    def test_small_gamma_near_one(self):
        diag = multiplier_diagonal(sobolev_multiplier(1e-9), sphere(2), 10)
        assert np.allclose(diag, 1.0, atol=1e-6)

    def test_decreasing_across_blocks(self):
        diag = multiplier_diagonal(sobolev_multiplier(1.0), sphere(2), 30)
        assert np.all(np.diff(diag) <= 0)

    def test_power_rate_is_scale_stable(self):
        # the defining property of the admissible class: a fixed dilation
        # changes the rate by a constant factor only
        rate = sobolev_multiplier(2.0)
        for c in (2.0, 10.0, 100.0):
            vals = [rate(c * t) / rate(t) for t in (1.0, 50.0, 1e4)]
            assert np.allclose(vals, c ** -1.0, rtol=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(BadDimensions):
            sobolev_multiplier(0.0)
