import numpy as np
import pytest

from widthlab.errors import (BadDimensions, DimensionMismatch, RankDeficient,
                             SingularMatrix)
from widthlab.linalg import (Subspace, _orthonormal, full_space, min_singular_value,
                             orthonormalize, random_subspace)
from widthlab.systems import trig_prefix_system
from widthlab.widths import l1_section_radius_bound


class TestOrthonormalize:
    def test_axis_aligned_pair(self):
        sub = orthonormalize([[1.0, 0.0], [1.0, 1.0]])
        assert sub.dim == 2
        assert np.allclose(sub.frame @ sub.frame.T, np.eye(2), atol=1e-10)
        # span preserved: both inputs reproduce under projection
        for v in ([1.0, 0.0], [1.0, 1.0]):
            assert np.allclose(sub.project(v), v, atol=1e-10)

    def test_single_vector_normalized(self):
        sub = orthonormalize([[2.0, 0.0, 0.0]])
        assert np.allclose(sub.frame, [[1.0, 0.0, 0.0]])

    def test_duplicate_direction_rejected(self):
        with pytest.raises(RankDeficient):
            orthonormalize([[1.0, 1.0], [1.0, 1.0 + 1e-14]])

    def test_too_many_vectors(self):
        with pytest.raises(RankDeficient):
            orthonormalize([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_ragged_vectors_rejected(self):
        with pytest.raises(DimensionMismatch, match="equal-length vectors"):
            orthonormalize([[1.0, 0.0], [1.0]])

    def test_random_spans_are_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = rng.integers(2, 9)
            s = rng.integers(1, n + 1)
            sub = orthonormalize(rng.standard_normal((s, n)))
            assert np.max(np.abs(sub.frame @ sub.frame.T - np.eye(s))) < 1e-10

    def test_gram_schmidt_convention_one_at_a_time_or_stacked(self):
        # v @ frame.T is lower triangular with a positive diagonal: row i of
        # the frame is Gram-Schmidt's, whatever the signs of the inputs
        rng = np.random.default_rng(5)
        for n, s in ((2, 2), (3, 2), (5, 3), (6, 6), (8, 5)):
            stack = rng.standard_normal((6, s, n))
            stack[::2, :, 0] = -np.abs(stack[::2, :, 0])  # negative leading entries
            frames = [orthonormalize(v).frame for v in stack]
            for v, frame in zip(stack, frames):
                t = v @ frame.T
                assert np.max(np.abs(np.triu(t, 1))) < 1e-12
                assert np.all(np.diag(t) > 0)
            assert np.array_equal(_orthonormal(stack), frames)


class TestProject:
    def test_axis_projection(self):
        sub = orthonormalize([[1.0, 0.0]])
        assert np.allclose(sub.project([3.0, 4.0]), [3.0, 0.0])

    def test_vector_already_in_subspace(self):
        sub = orthonormalize([[1.0, 1.0]])
        assert np.allclose(sub.project([1.0, 1.0]), [1.0, 1.0], atol=1e-12)

    def test_rank_one_projector(self):
        sub = orthonormalize([[1.0, 1.0]])
        assert np.allclose(sub.project([1.0, 0.0]), [0.5, 0.5], atol=1e-12)

    def test_idempotent_and_residual_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sub = random_subspace(6, 3, rng)
            x = rng.standard_normal(6)
            px = sub.project(x)
            assert np.allclose(sub.project(px), px, atol=1e-10)
            assert np.max(np.abs((x - px) @ sub.frame.T)) < 1e-10

    def test_dimension_mismatch(self):
        sub = orthonormalize([[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            sub.project([1.0, 2.0, 3.0])


class TestSingularValues:
    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 13):
            a = rng.standard_normal((n, n))
            ref = np.linalg.svd(a, compute_uv=False)[-1]
            assert min_singular_value(a) == pytest.approx(ref, rel=1e-12)

    def test_diagonal_is_smallest_entry_exactly(self):
        # the radius and projection-ellipsoid checks pass only diagonal
        # matrices; their outputs depend on this equality holding bit for bit
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            d = np.exp(rng.uniform(-1.0, 1.0, n)) * rng.choice([-1.0, 1.0], n)
            assert min_singular_value(np.diag(d)) == np.min(np.abs(d))

    def test_identity(self):
        assert min_singular_value(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_singular_value(np.diag([3.0, 2.0, 1.0])) == pytest.approx(1.0)

    def test_antidiagonal(self):
        assert min_singular_value([[0.0, 2.0], [0.5, 0.0]]) == pytest.approx(0.5)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        for c in (-2.5, 0.3, 7.0):
            assert min_singular_value(c * a) == pytest.approx(
                abs(c) * min_singular_value(a), rel=1e-9)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            min_singular_value([[1.0, 1.0], [1.0, 1.0]])

    def test_small_scale_is_not_singular(self):
        # singularity is judged relative to the largest singular value, so a
        # well-conditioned matrix of tiny determinant (1e-15 here) passes
        assert min_singular_value(1e-3 * np.eye(5)) == 1e-3
        bound = l1_section_radius_bound(1e-3 * np.eye(3), trig_prefix_system(3), 2.0)
        assert np.isfinite(bound) and bound > 0

    def test_inscribed_ball(self):
        # boundary of the smallest-singular-value ball stays inside the image
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        rho = min_singular_value(a)
        inv = np.linalg.inv(a)
        pts = rng.standard_normal((1000, 4))
        pts = rho * pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.all(np.linalg.norm(pts @ inv.T, axis=1) <= 1.0 + 1e-10)


class TestRandomSubspace:
    def test_full_dimension(self):
        sub = random_subspace(3, 3, seed=5)
        assert np.allclose(abs(np.linalg.det(sub.frame)), 1.0)

    def test_deterministic(self):
        a = random_subspace(5, 2, seed=42)
        b = random_subspace(5, 2, seed=42)
        assert np.array_equal(a.frame, b.frame)

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensions):
            random_subspace(3, 0)
        with pytest.raises(BadDimensions):
            random_subspace(3, 4)

    def test_angle_uniform_on_circle(self):
        from scipy.stats import kstest

        angles = []
        for seed in range(10_000):
            v = random_subspace(2, 1, seed=seed).frame[0]
            angles.append(np.arctan2(v[1], v[0]) % np.pi)
        stat = kstest(np.asarray(angles), "uniform", args=(0.0, np.pi)).statistic
        assert stat < 0.02


class TestSubspaceGeometry:
    def test_complement(self):
        sub = orthonormalize([[1.0, 0.0, 0.0]])
        comp = sub.complement()
        assert comp.dim == 2
        assert np.max(np.abs(comp.frame @ sub.frame.T)) < 1e-12

    def test_frame_validation(self):
        with pytest.raises(RankDeficient):
            Subspace(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_ragged_frame_rejected(self):
        with pytest.raises(DimensionMismatch, match="row vectors"):
            Subspace([[1.0, 0.0], [0.0]])

    def test_full_space_roundtrip(self):
        sub = full_space(4)
        x = np.arange(4.0)
        assert np.allclose(sub.project(x), x)
