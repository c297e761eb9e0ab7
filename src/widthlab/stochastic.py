"""Haar sampling on the sphere, Monte-Carlo estimates, nets, and radii.

All volume computations are ratios against a reference body through the
sphere-integral identity Vol(V)/Vol(B_2^n) = E[gauge_V^{-n}] over the unit
sphere; absolute volumes in high dimension underflow and no inequality in
this package needs them.

Sampling is chunked and single-stream per worker: a worker count w splits
the sample budget into w independent substreams spawned from the seed, and
results merge by weighted mean, so estimates are reproducible bit-for-bit
for a fixed (seed, workers) pair regardless of scheduling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _optim
from .bodies import Body, LinearImageBody, LpBall, SectionBody
from .errors import BadDimensions, Saturation, VarianceBlowup
from .linalg import Subspace, as_generator

_CHUNK = 65536
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte-Carlo scalar with a 95% normal-approximation half width."""

    value: float
    half_width: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.half_width < 0:
            raise BadDimensions("half width cannot be negative")

    def to_json(self) -> str:
        return json.dumps(
            {"value": self.value, "half_width": self.half_width,
             "samples": self.samples, "seed": self.seed},
            sort_keys=True,
        )


@dataclass(frozen=True)
class NetReport:
    """Greedy covering/packing of a body at scale delta in a reference gauge.

    The farthest-point construction makes the selected set simultaneously a
    delta-packing (pairwise distances >= delta) and a delta-net of the
    sampled cloud; ``certified`` records a fresh-sample coverage check.
    """

    delta: float
    net_points: np.ndarray
    packing_points: np.ndarray
    certified: bool
    coverage: float

    @property
    def net_size(self) -> int:
        return len(self.net_points)

    @property
    def packing_size(self) -> int:
        return len(self.packing_points)


def haar_sphere_sample(n: int, count: int, seed=0) -> np.ndarray:
    """``count`` unit vectors in R^n, rotation-invariant law, per-seed stable."""
    if n < 1:
        raise BadDimensions("n must be >= 1")
    rng = as_generator(seed)
    g = rng.standard_normal((int(count), n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g / norms


def _worker_streams(seed, workers: int):
    if workers < 1:
        raise BadDimensions("worker count must be >= 1")
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2**63))  # derive, stay reproducible
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(workers)]


def _sphere_chunks(rng, n: int, total: int):
    done = 0
    while done < total:
        take = min(_CHUNK, total - done)
        g = rng.standard_normal((take, n))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        yield g / norms
        done += take


def expectation_norm(body: Body, samples: int = 200_000, seed=0,
                     workers: int = 1) -> EstimateWithCI:
    """Mean of the gauge over the Haar-uniform unit sphere."""
    if samples < 1000:
        raise BadDimensions("need at least 1e3 samples")
    per = [samples // workers] * workers
    per[-1] += samples - sum(per)
    total = s1 = s2 = 0.0
    for rng, count in zip(_worker_streams(seed, workers), per):
        for chunk in _sphere_chunks(rng, body.dim, count):
            g = body.gauge_many(chunk)
            s1 += float(g.sum())
            s2 += float((g * g).sum())
            total += len(g)
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    half = _Z95 * math.sqrt(var / total)
    return EstimateWithCI(mean, half, int(total), seed)


def expected_norm_bound(p: float) -> float:
    """Closed-form upper bound for the sphere expectation of an induced
    p-norm gauge, p >= 2: the L_p moment of a standard Gaussian.

    Equals 1 at p=2 and grows like sqrt(p).
    """
    if p < 2:
        raise BadDimensions("the bound holds for p >= 2")
    return float(2.0 ** 0.5 * math.pi ** (-0.5 / p)
                 * math.exp(math.lgamma((p + 1.0) / 2.0) / p))


def mc_volume_ratio(body: Body, reference: Body, samples: int = 500_000,
                    seed=0, workers: int = 1, check_blowup: bool = True) -> EstimateWithCI:
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
    per = [samples // workers] * workers
    per[-1] += samples - sum(per)
    total = sx = sy = sxx = syy = sxy = 0.0
    for rng, count in zip(_worker_streams(seed, workers), per):
        for chunk in _sphere_chunks(rng, n, count):
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
    est = EstimateWithCI(ratio, half, int(total), seed)
    if check_blowup and half > 0.25 * abs(ratio):
        raise VarianceBlowup(f"half width {half:.3g} exceeds 25% of {ratio:.3g}")
    return est


def section_volume_ratio(body: Body, subspace: Subspace, reference: Body,
                         samples: int = 200_000, seed=0) -> EstimateWithCI:
    """Volume ratio of the central section body-cap-L against a reference in L."""
    if subspace.dim > 8:
        raise BadDimensions("sections are limited to dim <= 8")
    return mc_volume_ratio(SectionBody(body, subspace), reference,
                           samples=samples, seed=seed)


def projection_volume_ratio(body: Body, subspace: Subspace,
                            samples: int = 600, seed=0) -> EstimateWithCI:
    """Volume of the orthogonal projection of ``body`` onto ``subspace``,
    relative to the unit ball of the subspace.

    Radial distances to the projection boundary come from one convex
    minimization per direction (the gauge of the projection is the infimum
    of the base gauge over the orthogonal complement), so the sample budget
    should stay modest.
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


def section_radius(body: Body, target: Body, subspace: Subspace,
                   restarts: int = 64, seed=0, polish: bool = True) -> float:
    """sup{ gauge_target(x) : x in body, x in subspace }.

    For an ellipsoid measured in the Euclidean norm the value is exact via
    the restricted quadratic form; otherwise multistart ascent returns a
    certified lower bound of the true radius.
    """
    if restarts < 8:
        raise BadDimensions("need at least 8 restarts")
    a = _euclidean_image_matrix(body)
    if a is not None and isinstance(target, LpBall) and target.p == 2.0:
        half = subspace.frame @ np.linalg.inv(a).T
        quad = half @ half.T
        lam_min = float(np.linalg.eigvalsh(quad)[0])
        return 1.0 / math.sqrt(lam_min)
    starts = as_generator(seed).standard_normal((1, restarts, subspace.dim))
    values, _ = _optim.ratio_ascent(SectionBody(target, subspace),
                                    SectionBody(body, subspace), starts, polish=polish)
    return float(values[0])


def _body_cloud(body: Body, count: int, rng) -> np.ndarray:
    """Points of the body: random directions pushed to a random fraction of
    the boundary (covers the body densely; not volume-uniform, which the
    greedy construction does not need)."""
    n = body.dim
    u = haar_sphere_sample(n, count, rng)
    radial = body.gauge_many(u)
    scale = rng.random(count) ** (1.0 / n) / radial
    return u * scale[:, None]


def greedy_net(body: Body, reference_gauge: Body, delta: float, seed=0,
               cloud_size: int | None = None,
               certificate_samples: int = 10_000) -> NetReport:
    """Farthest-point greedy net/packing of a body at scale delta.

    Points are added while the farthest cloud point sits at distance >= delta
    from the current set, so the selection is delta-separated and covers the
    cloud within delta; a maximal packing is automatically a net.  Coverage
    of the body itself is certified on a fresh sample.
    """
    n = body.dim
    if n > 6:
        raise BadDimensions("greedy nets are limited to n <= 6")
    if delta <= 0:
        raise BadDimensions("delta must be positive")
    rng = as_generator(seed)
    if cloud_size is None:
        cloud_size = int(min(65536, max(8192, 4000 * 4**n)))
    cloud = _body_cloud(body, cloud_size, rng)

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

    fresh = _body_cloud(body, certificate_samples, as_generator(rng.integers(2**63)))
    mind = np.full(len(fresh), np.inf)
    for p in points:
        np.minimum(mind, reference_gauge.gauge_many(fresh - p), out=mind)
    coverage = float(np.mean(mind <= delta + 1e-12))
    return NetReport(delta=float(delta), net_points=points, packing_points=points,
                     certified=coverage >= 0.999, coverage=coverage)


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
        return EstimateWithCI(0.0, 0.0, samples, 0)
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
    return EstimateWithCI(mean, _Z95 * math.sqrt(var / total), int(total), 0)


def brunn_section_check(body: Body, subspace: Subspace, offsets,
                        samples: int = 20_000, seed=0) -> bool:
    """Check that the central section has the largest slice volume.

    True when the central estimate exceeds every offset estimate minus twice
    the combined half widths.
    """
    rng = as_generator(seed)
    central = _offset_section_volume(body, subspace, np.zeros(body.dim), samples, rng)
    for z in offsets:
        off = _offset_section_volume(body, subspace, z, samples, rng)
        slack = 2.0 * (central.half_width + off.half_width)
        if central.value < off.value - slack:
            return False
    return True
