"""Haar sampling on the sphere, Monte-Carlo estimates, nets, and radii.

All volume computations are ratios against a reference body through the
sphere-integral identity Vol(V)/Vol(B_2^n) = E[gauge_V^{-n}] over the unit
sphere; absolute volumes in high dimension underflow and no inequality in
this package needs them.

Sampling is chunked from one stream spawned from the seed (a Generator
seed first draws an integer seed from itself), so estimates are
reproducible bit for bit for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _optim
from .bodies import Body, LinearImageBody, LpBall
from .errors import BadDimensions, Saturation, VarianceBlowup
from .linalg import Subspace, _unit_rows, as_generator

_CHUNK = 65536
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_NET_CERTIFICATE_SAMPLES = 10_000  # fresh body points checking a net's coverage


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte-Carlo scalar with a 95% normal-approximation half width."""

    value: float
    half_width: float
    samples: int

    def __post_init__(self):
        if self.half_width < 0:
            raise BadDimensions("half width cannot be negative")


@dataclass(frozen=True)
class NetReport:
    """Greedy covering/packing of a body at scale delta in a reference gauge.

    The farthest-point construction makes the selected set simultaneously a
    delta-packing (pairwise distances >= delta) and a delta-net of the
    sampled cloud, so one set of points is both; ``certified`` records a
    fresh-sample coverage check.
    """

    net_points: np.ndarray
    certified: bool
    coverage: float

    @property
    def net_size(self) -> int:
        return len(self.net_points)


def _sample_count(value, low: int) -> int:
    """A sample count: ``value`` if it is an integer (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise BadDimensions(f"a sample count must be an integer >= {low}, got {value!r}")
    return int(value)


def haar_sphere_sample(n: int, count: int, seed=0) -> np.ndarray:
    """``count`` unit vectors in R^n, rotation-invariant law, per-seed stable."""
    if n < 1:
        raise BadDimensions("n must be >= 1")
    g = as_generator(seed).standard_normal((_sample_count(count, 0), n))
    return _unit_rows(g, out=g)


def _stream(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2**63))  # derive, stay reproducible
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _sphere_chunks(rng, n: int, total: int):
    done = 0
    while done < total:
        take = min(_CHUNK, total - done)
        g = rng.standard_normal((take, n))
        yield _unit_rows(g, out=g)
        done += take


def expectation_norm(body: Body, samples: int = 200_000, seed=0) -> EstimateWithCI:
    """Mean of the gauge over the Haar-uniform unit sphere."""
    samples = _sample_count(samples, 1000)
    total = s1 = s2 = 0.0
    for chunk in _sphere_chunks(_stream(seed), body.dim, samples):
        g = body.gauge_many(chunk)
        s1 += float(g.sum())
        s2 += float((g * g).sum())
        total += len(g)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    half = _Z95 * math.sqrt(var / total)
    return EstimateWithCI(mean, half, int(total))


def expected_norm_bound(p: float) -> float:
    """Closed-form upper bound for the sphere expectation of an induced
    p-norm gauge, p >= 2: the L_p moment of a standard Gaussian.

    Equals 1 at p=2 and grows like sqrt(p), so it is infinite at p=inf.
    """
    if p < 2:
        raise BadDimensions("the bound holds for p >= 2")
    if math.isinf(p):
        return math.inf
    return float(2.0 ** 0.5 * math.pi ** (-0.5 / p)
                 * math.exp(math.lgamma((p + 1.0) / 2.0) / p))


def mc_volume_ratio(body: Body, reference: Body, samples: int = 500_000,
                    seed=0, check_blowup: bool = True) -> EstimateWithCI:
    """Vol(body)/Vol(reference) by the sphere-integral identity.

    Both integrands gauge^{-n} share the same sample stream, so the ratio of
    means benefits from common random numbers; the half width comes from the
    delta method.  Raises :class:`VarianceBlowup` when the half width
    exceeds 25% of the value.
    """
    n = body.dim
    if reference.dim != n:
        raise BadDimensions("bodies must share a dimension")
    if n > 10:
        raise BadDimensions("volume ratios are limited to n <= 10")
    samples = _sample_count(samples, 1)
    total = sx = sy = sxx = syy = sxy = 0.0
    for chunk in _sphere_chunks(_stream(seed), n, samples):
        x = body.gauge_many(chunk) ** float(-n)
        y = reference.gauge_many(chunk) ** float(-n)
        sx += float(x.sum()); sy += float(y.sum())
        sxx += float((x * x).sum()); syy += float((y * y).sum())
        sxy += float((x * y).sum())
        total += len(chunk)
    mx, my = sx / total, sy / total
    vx = max(sxx / total - mx * mx, 0.0)
    vy = max(syy / total - my * my, 0.0)
    cxy = sxy / total - mx * my
    ratio = mx / my
    rel_var = max(vx / mx**2 + vy / my**2 - 2.0 * cxy / (mx * my), 0.0)
    half = _Z95 * abs(ratio) * math.sqrt(rel_var / total)
    est = EstimateWithCI(ratio, half, int(total))
    if check_blowup and half > 0.25 * abs(ratio):
        raise VarianceBlowup(f"half width {half:.3g} exceeds 25% of {ratio:.3g}")
    return est


def projection_volume_ratio(body: Body, subspace: Subspace,
                            samples: int = 600, seed=0) -> EstimateWithCI:
    """Volume of the orthogonal projection of ``body`` onto ``subspace``,
    relative to the unit ball of the subspace.

    The gauge of the projection is the infimum of the base gauge over the
    orthogonal complement; every sample chunk is one batched ascent call
    (``ProjectionBody``).  Achieved infima bound the gauge from above, so
    the estimate errs low.
    """
    from .bodies import ProjectionBody

    proj = ProjectionBody(body, subspace)
    return mc_volume_ratio(proj, LpBall(subspace.dim, 2.0), samples=samples,
                           seed=seed, check_blowup=False)


def _euclidean_image_matrix(body: Body):
    """Invertible A with body = A * B_2^n, when the structure shows it."""
    if isinstance(body, LpBall) and body.p == 2.0:
        return np.eye(body.dim)
    if isinstance(body, LinearImageBody):
        inner = _euclidean_image_matrix(body.base)
        if inner is not None:
            return body.matrix @ inner
    return None


def _section_radii(body: Body, target: Body, frames: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """Section radius of ``body`` in the ``target`` gauge for every frame of a
    (k, s, n) stack, by a stacked closed form when both are ellipsoids, else
    by one ascent call from the shared (restarts, s) ``starts``.

    For body A B_2 and target C B_2 the radius is the largest
    |y F C^{-T}| / |y F A^{-T}|: with F A^{-T} (F A^{-T})^T = L L^T, the
    largest singular value of L^{-1} F C^{-T}.  For B_2 in the gauge
    |A^T x| that is the largest singular value of F A."""
    a, c = _euclidean_image_matrix(body), _euclidean_image_matrix(target)
    if a is not None and c is not None:
        half = frames @ np.linalg.inv(a).T
        low = np.linalg.cholesky(half @ half.transpose(0, 2, 1))
        return np.linalg.svd(np.linalg.solve(low, frames @ np.linalg.inv(c).T),
                             compute_uv=False)[:, 0]
    values, _ = _optim.ratio_ascent(target, body,
                                    np.broadcast_to(starts, (len(frames),) + starts.shape),
                                    num_maps=frames, den_maps=frames)
    return values


def section_radius(body: Body, target: Body, subspace: Subspace,
                   restarts: int = 64, seed=0) -> float:
    """sup{ gauge_target(x) : x in body, x in subspace }.

    Exact for an ellipsoid in an ellipsoidal norm (a stacked closed form);
    otherwise the best value of one ``_optim.ratio_ascent`` call over
    ``restarts`` random starts, a certified lower bound of the true radius.
    """
    if restarts < 8:
        raise BadDimensions("need at least 8 restarts")
    starts = as_generator(seed).standard_normal((restarts, subspace.dim))
    return float(_section_radii(body, target, subspace.frame[None], starts)[0])


def _body_cloud(body: Body, count: int, rng) -> np.ndarray:
    """Points of the body: random directions pushed to a random fraction of
    the boundary (covers the body densely; not volume-uniform, which the
    greedy construction does not need)."""
    n = body.dim
    u = haar_sphere_sample(n, count, rng)
    radial = body.gauge_many(u)
    scale = rng.random(count) ** (1.0 / n) / radial
    return u * scale[:, None]


def greedy_net(body: Body, reference_gauge: Body, delta: float, seed=0) -> NetReport:
    """Farthest-point greedy net/packing of a body at scale delta.

    Points are added while the farthest cloud point sits at distance >= delta
    from the current set, so the selection is delta-separated and covers the
    cloud within delta; a maximal packing is automatically a net.  Coverage
    of the body itself is certified on a fresh sample.
    """
    n = body.dim
    if n > 6:
        raise BadDimensions("greedy nets are limited to n <= 6")
    if not (math.isfinite(delta) and delta > 0):
        raise BadDimensions(f"delta must be positive and finite, got {delta!r}")
    rng = as_generator(seed)
    cloud = _body_cloud(body, int(min(65536, max(8192, 4000 * 4**n))), rng)

    selected = [cloud[0]]
    dist = reference_gauge.gauge_many(cloud - cloud[0])
    while True:
        idx = int(np.argmax(dist))
        if dist[idx] < delta:
            break
        if len(selected) >= 1_000_000:
            raise Saturation("net exceeded the 1e6 point cap")
        selected.append(cloud[idx])
        np.minimum(dist, reference_gauge.gauge_many(cloud - cloud[idx]), out=dist)
    points = np.array(selected)

    # construction invariant: pairwise separation at scale delta
    for i in range(len(points)):
        gaps = reference_gauge.gauge_many(points[i + 1:] - points[i]) if i + 1 < len(points) else []
        if len(gaps) and np.min(gaps) < delta - 1e-9:
            raise Saturation("internal error: greedy selection lost separation")

    fresh = _body_cloud(body, _NET_CERTIFICATE_SAMPLES, as_generator(rng.integers(2**63)))
    mind = np.full(len(fresh), np.inf)
    for p in points:
        np.minimum(mind, reference_gauge.gauge_many(fresh - p), out=mind)
    coverage = float(np.mean(mind <= delta + 1e-12))
    return NetReport(net_points=points, certified=coverage >= 0.999, coverage=coverage)


def _offset_section_volume(body: Body, subspace: Subspace, offset: np.ndarray,
                           samples: int, rng) -> EstimateWithCI:
    """Volume of the slice of the body by the plane offset + subspace,
    relative to the unit ball of the subspace dimension; radial bisection
    per direction."""
    s = subspace.dim
    frame = subspace.frame
    z = np.asarray(offset, dtype=float)
    z = z - subspace.project(z)  # only the perpendicular component moves the slice
    if body.gauge(z) >= 1.0:
        return EstimateWithCI(0.0, 0.0, samples)
    total = s1 = s2 = 0.0
    done = 0
    while done < samples:
        take = min(8192, samples - done)
        u = haar_sphere_sample(s, take, rng) @ frame
        hi = np.ones(take)
        for _ in range(60):
            inside = body.gauge_many(z + hi[:, None] * u) <= 1.0
            if not np.any(inside):
                break
            hi[inside] *= 2.0
        lo = np.zeros(take)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            inside = body.gauge_many(z + mid[:, None] * u) <= 1.0
            lo[inside] = mid[inside]
            hi[~inside] = mid[~inside]
        vals = lo ** float(s)
        s1 += float(vals.sum()); s2 += float((vals * vals).sum())
        total += take
        done += take
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    return EstimateWithCI(mean, _Z95 * math.sqrt(var / total), int(total))


def _brunn_margin(body: Body, subspace: Subspace, offsets, samples: int, seed):
    """Central slice volume, and the smallest central - offset volume plus
    twice the combined half widths over the offsets."""
    rng = as_generator(seed)
    central = _offset_section_volume(body, subspace, np.zeros(body.dim), samples, rng)
    worst = math.inf
    for z in offsets:
        off = _offset_section_volume(body, subspace, z, samples, rng)
        slack = 2.0 * (central.half_width + off.half_width)
        worst = min(worst, central.value - off.value + slack)
    return central.value, worst
