import math
import tracemalloc

import numpy as np
import pytest

from widthlab.errors import BadDimensions, DimensionMismatch
from widthlab.linalg import Subspace
from widthlab.systems import (_BLOCK_VALUES, OrthonormalSystem, QuadratureRule, _legendre_rows,
                              abs_power, sphere_harmonics_system, trig_prefix_system,
                              trig_system)

NORM_COS_L1 = 2.0 * math.sqrt(2.0) / math.pi          # (1/2pi) int |sqrt2 cos| dt
NORM_COS_L4 = 1.5 ** 0.25                             # (1/2pi) int (sqrt2 cos)^4 = 3/2


@pytest.fixture(scope="module")
def trig3():
    return trig_system(1)


@pytest.fixture(scope="module")
def sphere9():
    return sphere_harmonics_system(2)


class TestQuadrature:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(BadDimensions):
            QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_negative_weights_rejected(self):
        with pytest.raises(BadDimensions):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.5, -0.5]))


class TestTrigSystem:
    def test_gram_is_identity(self, trig3):
        assert np.max(np.abs(trig3.gram() - np.eye(3))) < 1e-12

    def test_gram_identity_all_sizes(self):
        for k in (0, 2, 4, 7):
            s = trig_system(k)
            assert np.max(np.abs(s.gram() - np.eye(s.n))) < 1e-8

    def test_constant_function_every_p(self, trig3):
        for p in (1.0, 1.5, 2.0, 4.0, np.inf):
            assert trig3.lp_norm_many([1.0, 0.0, 0.0], p) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_l1(self, trig3):
        assert trig3.lp_norm_many([0.0, 1.0, 0.0], 1.0) == pytest.approx(NORM_COS_L1, abs=1e-3)

    def test_cosine_l4(self, trig3):
        assert trig3.lp_norm_many([0.0, 1.0, 0.0], 4.0) == pytest.approx(NORM_COS_L4, abs=1e-12)

    def test_cosine_sup(self, trig3):
        # the grid contains t=0 where sqrt2*cos peaks exactly
        assert trig3.lp_norm_many([0.0, 1.0, 0.0], np.inf) == pytest.approx(math.sqrt(2.0))

    def test_sine_sup_bias_below_one_percent(self, trig3):
        val = trig3.lp_norm_many([0.0, 0.0, 1.0], np.inf)
        assert math.sqrt(2.0) * 0.99 <= val <= math.sqrt(2.0)

    def test_p2_matches_euclidean(self):
        rng = np.random.default_rng(1)
        s = trig_system(3)
        for _ in range(50):
            a = rng.standard_normal(s.n)
            assert s.lp_norm_many(a, 2.0) == pytest.approx(np.linalg.norm(a), abs=1e-8)

    def test_dimension_mismatch(self, trig3):
        with pytest.raises(DimensionMismatch):
            trig3.lp_norm_many([1.0, 0.0], 2.0)

    def test_p_below_one_rejected(self, trig3):
        with pytest.raises(BadDimensions):
            trig3.lp_norm_many([1.0, 0.0, 0.0], 0.5)


class TestSphereSystem:
    def test_degree_zero_is_constant(self):
        s = sphere_harmonics_system(0)
        assert s.n == 1
        for p in (1.0, 2.0, 7.0, np.inf):
            assert s.lp_norm_many([1.0], p) == pytest.approx(1.0, abs=1e-12)

    def test_gram_is_identity(self, sphere9):
        assert sphere9.n == 9
        assert np.max(np.abs(sphere9.gram() - np.eye(9))) < 1e-8

    def test_gram_identity_degree_twelve(self):
        s = sphere_harmonics_system(12)
        assert s.n == 169
        assert np.max(np.abs(s.gram() - np.eye(169))) < 1e-13

    def test_legendre_recurrence_matches_closed_form(self):
        from scipy.special import gammaln, lpmv

        t = np.concatenate([np.polynomial.legendre.leggauss(26)[0], [1.0, -1.0, 0.0, 0.3]])
        table = _legendre_rows(12, t)
        for k in range(13):
            for m in range(k + 1):
                norm = np.exp(0.5 * (np.log(2 * k + 1) + gammaln(k - m + 1)
                                     - gammaln(k + m + 1)))
                np.testing.assert_allclose(table[k, m], norm * lpmv(m, k, t),
                                           rtol=0, atol=1e-13, err_msg=f"k={k}, m={m}")
        assert not np.any(table[np.triu_indices(13, 1)])

    def test_zonal_degree_one(self, sphere9):
        # index 2 is the (k=1, order=0) harmonic sqrt(3) cos(polar)
        y10 = np.zeros(9)
        y10[2] = 1.0
        assert sphere9.lp_norm_many(y10, 4.0) ** 4 == pytest.approx(9.0 / 5.0, abs=1e-10)
        assert sphere9.lp_norm_many(y10, np.inf) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_degree_cap(self):
        with pytest.raises(BadDimensions):
            sphere_harmonics_system(13)


class TestNormAxioms:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
    def test_triangle_and_homogeneity(self, p):
        rng = np.random.default_rng(97 if np.isinf(p) else int(p * 10))
        for system in (trig_system(2), sphere_harmonics_system(1)):
            x = rng.standard_normal((1000, system.n))
            y = rng.standard_normal((1000, system.n))
            nx = system.lp_norm_many(x, p)
            ny = system.lp_norm_many(y, p)
            nxy = system.lp_norm_many(x + y, p)
            assert np.all(nxy <= nx + ny + 1e-8)
            c = rng.standard_normal(1000)
            ncx = system.lp_norm_many(c[:, None] * x, p)
            assert np.max(np.abs(ncx - np.abs(c) * nx)) < 1e-8

    def test_monotone_in_p(self):
        # on a probability space the L_p norms increase with p
        rng = np.random.default_rng(5)
        grid = [1.0, 1.5, 2.0, 4.0, 8.0, np.inf]
        for system in (trig_system(2), sphere_harmonics_system(2)):
            x = rng.standard_normal((200, system.n))
            norms = [system.lp_norm_many(x, p) for p in grid]
            for lo, hi in zip(norms, norms[1:]):
                assert np.all(lo <= hi + 1e-10)


class TestPrefix:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_prefix_orthonormal(self, n):
        s = trig_prefix_system(n)
        assert s.n == n
        assert np.max(np.abs(s.gram() - np.eye(n))) < 1e-12

    def test_prefix_bounds(self, trig3):
        with pytest.raises(BadDimensions):
            trig3.prefix(4)


def _trig3_with_nan(idx):
    trig3 = trig_system(1)
    values = trig3.values.copy()
    values[idx] = np.nan
    return OrthonormalSystem("trig-3", trig3.quadrature, values)


@pytest.mark.parametrize("build, error", [
    (lambda: Subspace(np.array([[np.nan, 0.0]])), DimensionMismatch),
    (lambda: QuadratureRule(np.array([0.0, 1.0]), np.array([np.nan, 1.0])), BadDimensions),
    (lambda: _trig3_with_nan((1, 4)), BadDimensions),
], ids=["subspace-frame", "quadrature-weight", "system-values"])
def test_nan_input_rejected(build, error):
    with pytest.raises(error):
        build()


def test_abs_power_matches_numpy():
    rng = np.random.default_rng(2)
    a = np.abs(rng.standard_normal(500)) + 1e-6
    for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 8.5, 3.3):
        assert np.allclose(abs_power(a, p), a**p, rtol=1e-12)


def _abs_power_reference(a, p):
    """Reference loop for abs_power: squares once past the last bit and sends
    p = 0 through numpy; the results must match bit for bit all the same."""
    a = np.abs(a)
    twice = 2.0 * p
    if twice == int(twice) and 0 < twice <= 17:
        half = int(twice)
        out = np.sqrt(a) if half % 2 else None
        base = a
        acc = None
        k = half // 2
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            base = base * base
            k >>= 1
        if out is None:
            return acc if acc is not None else np.ones_like(a)
        return out if acc is None else acc * out
    return a ** p


@pytest.mark.parametrize("p", np.arange(0.0, 9.0, 0.5))
def test_abs_power_bitwise_unchanged(p):
    rng = np.random.default_rng(3)
    a = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, np.inf],
                        rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)])
    with np.errstate(over="ignore"):  # the reference's unused last square overflows
        ref = _abs_power_reference(a, p)
    assert np.array_equal(abs_power(a, p), ref)


def _lp_norm_reference(system, coeffs, p):
    """lp_norm_many in one shot over all rows, with no row blocks."""
    f = coeffs @ system.values
    if np.isinf(p):
        return np.max(np.abs(f), axis=-1)
    w = system.quadrature.weights
    if p == 2.0:
        return np.sqrt((f * f) @ w)
    return (abs_power(f, p) @ w) ** (1.0 / p)


def block_rows(system):
    """Rows per block of the node-space oracles for ``system``."""
    return max(8, _BLOCK_VALUES // len(system.quadrature) // 8 * 8)


class TestRowBlocks:
    # With OpenBLAS 0.3.31 (x86-64) the norms below are bitwise equal to the
    # reference, except sphere-16 at p = inf: a 264-row block of its product
    # takes a small-matrix kernel that rounds the two zero-weight pole nodes
    # differently (1 ulp).  Two ulps leave room for other BLAS builds.
    @pytest.mark.parametrize("system", [trig_system(4), sphere_harmonics_system(3)],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, np.inf])
    def test_blocks_match_one_shot(self, system, p):
        b = block_rows(system)
        rng = np.random.default_rng(11)
        for rows in (0, 1, b - 1, b, b + 1, 3 * b + 7):
            x = rng.standard_normal((rows, system.n))
            got = system.lp_norm_many(x, p)
            assert got.shape == (rows,)
            np.testing.assert_array_max_ulp(got, _lp_norm_reference(system, x, p), maxulp=2)

    def test_leading_shape_kept(self):
        system = trig_system(4)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, block_rows(system), system.n))
        for p in (1.5, 2.0, np.inf):
            got = system.lp_norm_many(x, p)
            assert got.shape == (3, block_rows(system))
            np.testing.assert_array_max_ulp(got, _lp_norm_reference(system, x, p), maxulp=2)
            one = system.lp_norm_many(x[0, 0], p)
            assert np.ndim(one) == 0 and one == got[0, 0]
        assert system.lp_norm_many(np.zeros((2, 0, system.n)), 3.0).shape == (2, 0)

    def test_memory_bounded_by_blocks(self):
        system = trig_system(4)
        rows = 65536
        x = np.random.default_rng(13).standard_normal((rows, system.n))
        for p in (1.5, 2.0, 3.0, np.inf):
            tracemalloc.start()
            try:
                system.lp_norm_many(x, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < rows * len(system.quadrature) * 8 / 4
