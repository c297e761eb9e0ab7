import numpy as np
import pytest

from widthlab import _optim
from widthlab.bodies import Body, InducedBall, LinearImageBody, SectionBody
from widthlab.linalg import as_generator, random_subspace
from widthlab.systems import trig_prefix_system


def _radius_problems(count, seed=0):
    """Section-radius problems of one (n, p, q) cell, in the kernel's form."""
    system = trig_prefix_system(4)
    rng = as_generator(seed)
    num_maps, den_maps, starts, bodies = [], [], [], []
    for _ in range(count):
        a = np.diag(np.exp(rng.uniform(-1.0, 1.0, 4)))
        sub = random_subspace(4, 2, rng)
        num_maps.append(sub.frame)
        den_maps.append(sub.frame @ np.linalg.inv(a).T)
        starts.append(rng.standard_normal((16, 2)))
        bodies.append((SectionBody(InducedBall(system, 1.5), sub),
                       SectionBody(LinearImageBody(InducedBall(system, 4.0), a), sub)))
    return (InducedBall(system, 1.5), InducedBall(system, 4.0), np.array(starts),
            np.array(num_maps), np.array(den_maps), bodies)


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
        num, den, starts, nmaps, dmaps, _ = _radius_problems(20)
        batch, _ = _optim.ratio_ascent(num, den, starts, num_maps=nmaps, den_maps=dmaps)
        for k in range(20):
            alone, _ = _optim.ratio_ascent(num, den, starts[k:k + 1],
                                           num_maps=nmaps[k:k + 1],
                                           den_maps=dmaps[k:k + 1])
            assert alone[0] == pytest.approx(batch[k], rel=1e-6)

    def test_value_is_achieved_at_returned_point(self):
        num, den, starts, nmaps, dmaps, bodies = _radius_problems(5, seed=3)
        values, points = _optim.ratio_ascent(num, den, starts, num_maps=nmaps,
                                             den_maps=dmaps)
        for value, point, (section_num, section_den) in zip(values, points, bodies):
            assert section_den.gauge(point) == pytest.approx(1.0, abs=1e-12)
            ratio = section_num.gauge(point) / section_den.gauge(point)
            assert value == pytest.approx(ratio, rel=1e-12)

    def test_constant_ratio_stops_early(self):
        body = _CountingBall(3)
        starts = np.random.default_rng(0).standard_normal((1, 8, 3))
        values, _ = _optim.ratio_ascent(body, body, starts, iters=300)
        assert values[0] == pytest.approx(1.0)
        iterations = (body.calls - 1) // 2  # one final scaling call
        assert iterations == _optim.PATIENCE + 1
