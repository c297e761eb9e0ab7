"""Haar sampling on the sphere, Monte-Carlo estimates, nets, and radii.

All volume computations are ratios against a reference body through the
sphere-integral identity Vol(V)/Vol(B_2^n) = E[gauge_V^{-n}] over the unit
sphere (absolute volumes underflow in high dimension).  One accumulator,
``_moments``, takes every sphere mean and volume ratio: half widths from
centred sums, 0 when constant.  Slices are exact 1-D chords, never sampled.

Sampling is chunked from one stream spawned from the seed (a Generator
seed first draws an integer seed from itself), so estimates are
reproducible bit for bit for a fixed seed.  A seeded stream of at most one
chunk is drawn once: the next ``expectation_norm`` or ``mc_volume_ratio``
call with the same seed, n and count reuses it (common random numbers);
at most one chunk is held, read-only, and results are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _optim
from .bodies import Body, LpBall, ProjectionBody, _lp_form
from .errors import BadDimensions, FloatRange, Saturation, VarianceBlowup
from .linalg import Subspace, _unit_rows, as_generator

_CHUNK = 65536
EXPECT_MIN_SAMPLES = 1000  # the fewest samples expectation_norm takes
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_NET_CERTIFICATE_SAMPLES = 10_000  # fresh body points checking a net's coverage


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte-Carlo scalar with a 95% normal-approximation half width."""

    value: float
    half_width: float
    samples: int

    def __post_init__(self):
        if not self.half_width >= 0:
            raise BadDimensions(f"a half width must be >= 0, got {self.half_width!r}")


@dataclass(frozen=True)
class NetReport:
    """Greedy covering/packing of a body at scale delta in a reference gauge.

    The farthest-point construction makes the selected set simultaneously a
    delta-packing (pairwise distances >= delta) and a delta-net of the
    sampled cloud, so one set of points is both; ``certified`` records a
    fresh-sample coverage check.  Nets of one cloud at several scales are
    prefixes of one traversal (``greedy_nets``).
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
    """``total`` Haar points of the unit sphere in R^n, in chunks of ``_CHUNK`` rows."""
    for done in range(0, total, _CHUNK):
        yield haar_sphere_sample(n, min(_CHUNK, total - done), rng)


_held = None  # (key, points) of the last seeded stream of at most _CHUNK rows


def _seeded_chunks(seed, n: int, total: int):
    """The chunks of ``_sphere_chunks(_stream(seed), n, total)``; a one-chunk
    stream is held, keyed by its initial PCG64 state, ``n`` and ``total``."""
    global _held
    rng = _stream(seed)
    state = rng.bit_generator.state["state"]
    key = (state["state"], state["inc"], n, total)
    if _held is None or _held[0] != key:
        _held = None  # release the held chunk before drawing another
        if total > _CHUNK:
            return _sphere_chunks(rng, n, total)
        points = haar_sphere_sample(n, total, rng)
        points.flags.writeable = False
        _held = (key, points)
    return (_held[1],)


def _moments(chunks):
    """Count, means, covariance and power-of-two shifts of the rows of the fresh
    (k, rows) arrays ``chunks``, which it overwrites: rows scaled by 2^shift,
    fixed by the first chunk, keep their bits and square in range; centred on
    their first scaled values, constant rows have covariance exactly 0."""
    total = sums = dsum = dd = 0
    for x in chunks:  # drawn outside the error state, which the caller's gauges must not share
        if not total:
            shift = -np.frexp(x.max(axis=1))[1][:, None]
            centre = np.ldexp(x[:, :1], shift)
        with np.errstate(over="ignore", invalid="ignore"):  # out of range shows in the means
            np.ldexp(x, shift, out=x)
            sums = sums + x.sum(axis=1)
            x -= centre
            dsum, dd = dsum + x.sum(axis=1), dd + np.einsum("ir,jr->ij", x, x)
            total += x.shape[1]
            cov = (dd - np.outer(dsum, dsum) / total) / total
    return total, sums / total, cov, shift[:, 0].tolist()


def _mean(chunks) -> EstimateWithCI:
    """Mean of the fresh arrays ``chunks`` with its 95% half width; FloatRange if not finite."""
    total, (mean,), ((var,),), (shift,) = _moments(v[None] for v in chunks)
    if not math.isfinite(mean):
        raise FloatRange(f"a sample mean leaves the float range: {float(mean)!r}")
    return EstimateWithCI(math.ldexp(mean, -shift),
                          math.ldexp(_Z95 * math.sqrt(max(var, 0.0) / total), -shift), total)


def expectation_norm(body: Body, samples: int = 200_000, seed=0) -> EstimateWithCI:
    """Mean of the gauge over the Haar-uniform unit sphere; raises
    :class:`FloatRange` when it is not finite."""
    samples = _sample_count(samples, EXPECT_MIN_SAMPLES)
    return _mean(body.gauge_many(u) for u in _seeded_chunks(seed, body.dim, samples))


def expected_norm_bound(p: float) -> float:
    """Closed-form upper bound for the sphere expectation of an induced
    p-norm gauge, p >= 2: the L_p moment of a standard Gaussian.

    Equals 1 at p=2 and grows like sqrt(p), so it is infinite at p=inf.
    """
    if not p >= 2:
        raise BadDimensions("the bound holds for p >= 2")
    if math.isinf(p):
        return math.inf
    return float(2.0 ** 0.5 * math.pi ** (-0.5 / p)
                 * math.exp(math.lgamma((p + 1.0) / 2.0) / p))


def mc_volume_ratio(body: Body, reference: Body, samples: int = 500_000,
                    seed=0, check_blowup: bool = True) -> EstimateWithCI:
    """Vol(body)/Vol(reference) by the sphere-integral identity.

    Both integrands gauge^{-n} share one sample stream (common random
    numbers); the half width is the delta method's g S g^T, g = (1/m_x,
    -1/m_y), S their centred covariance.  Raises :class:`VarianceBlowup`
    when the half width exceeds 25% of the value, and :class:`FloatRange`
    when a mean of gauge^{-n}, or their ratio, is 0 or not finite.
    """
    n = body.dim
    if reference.dim != n:
        raise BadDimensions("bodies must share a dimension")
    if n > 10:
        raise BadDimensions("volume ratios are limited to n <= 10")
    samples = _sample_count(samples, 1)

    def integrands():  # gauge^{-n} of both bodies, one (2, rows) array per chunk
        for u in _seeded_chunks(seed, n, samples):
            g = np.stack((body.gauge_many(u), reference.gauge_many(u)))
            with np.errstate(over="ignore", divide="ignore"):  # out of range shows in the means
                g **= float(-n)
            yield g

    total, (mx, my), cov, (sx, sy) = _moments(integrands())
    with np.errstate(all="ignore"):  # out of range shows in the check below
        grad = np.array([1.0 / mx, -1.0 / my])  # of log(mx / my)
        ratio, rel_var = float(np.ldexp(mx / my, sy - sx)), float(grad @ cov @ grad)
    if not (0.0 < mx < math.inf and 0.0 < my < math.inf and 0.0 < ratio < math.inf):
        raise FloatRange(f"a mean of gauge^(-{n}) or the ratio {ratio!r} leaves the float range")
    half = _Z95 * ratio * math.sqrt(max(rel_var, 0.0) / total)
    if check_blowup and half > 0.25 * ratio:
        raise VarianceBlowup(f"half width {half:.3g} exceeds 25% of {ratio:.3g}")
    return EstimateWithCI(ratio, half, total)


def projection_volume_ratio(body: Body, subspace: Subspace,
                            samples: int = 600, seed=0) -> EstimateWithCI:
    """Volume of the orthogonal projection of ``body`` onto ``subspace``,
    relative to the unit ball of the subspace.

    The gauge of the projection is the infimum of the base gauge over the
    orthogonal complement; every sample chunk is one batched reweighted
    least-squares solve (``ProjectionBody``), whose certified dual bounds
    bound the gauge from below, so the estimate errs high.  At p = 1 the
    solve ends at an optimal vertex and those bounds are the exact gauges
    (to roundoff); other exponents stop within ``bodies.BRACKET_RTOL``.
    """
    proj = ProjectionBody(body, subspace)
    return mc_volume_ratio(proj, LpBall(subspace.dim, 2.0), samples=samples,
                           seed=seed, check_blowup=False)


def _section_radii(body: Body, target: Body, frames: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """Section radius of ``body`` in the ``target`` gauge for every frame of a
    (k, s, n) stack, by a stacked closed form when both are ellipsoids, else
    by one ascent call from the shared (restarts, s) ``starts``.

    An ``_lp_form`` (M, w, 2) is the gauge |x E|, E = M sqrt(w); for body E
    and target E' the radius is the largest |y F E'| / |y F E|: with
    F E (F E)^T = L L^T, the largest singular value of L^{-1} F E'."""
    forms = _lp_form(body), _lp_form(target)
    if all(f is not None and f[2] == 2.0 for f in forms):
        half, other = (frames @ (m * np.sqrt(w)) for m, w, _ in forms)
        low = np.linalg.cholesky(half @ half.transpose(0, 2, 1))
        return np.linalg.svd(np.linalg.solve(low, other), compute_uv=False)[:, 0]
    return _optim.ratio_ascent(target, body,
                               np.broadcast_to(starts, (len(frames),) + starts.shape),
                               num_maps=frames, den_maps=frames)


def section_radius(body: Body, target: Body, subspace: Subspace,
                   restarts: int = 64, seed=0) -> float:
    """sup{ gauge_target(x) : x in body, x in subspace }.

    Exact for an ellipsoid in an ellipsoidal norm (a stacked closed form);
    otherwise the best value of one ``_optim.ratio_ascent`` call over
    ``restarts`` random starts, a certified lower bound of the true radius.
    """
    if not body.dim == target.dim == subspace.ambient_dim:
        raise BadDimensions("bodies and subspace must share a dimension")
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


def _drop_settled(keep, *arrays):
    """``arrays`` cut in place to their ``keep`` rows, in order, once at most half are kept."""
    k = np.count_nonzero(keep)
    if 2 * k > len(keep):
        return arrays
    rows = np.flatnonzero(keep)  # an index gather: a boolean one is 3x slower on 2-D rows
    for a in arrays:
        a[:k] = a[rows]
    return tuple(a[:k] for a in arrays)


def greedy_nets(body: Body, reference_gauge: Body, deltas, seed=0) -> list[NetReport]:
    """Farthest-point greedy nets/packings of a body at each scale in ``deltas``.

    One traversal of one cloud runs down to min(deltas).  Insertion
    distances (each point's distance to those before it) never rise, so the
    net at delta is the prefix inserted at distance >= delta (Gonzalez,
    *Theor. Comput. Sci.* 38, 1985), which a separate run at delta selects:
    delta-separated, and covering the cloud within delta.  Coverage of the
    body itself is certified on one fresh sample, folded in prefix by prefix.
    Rows within min(deltas) of the net settle (never picked, covered at every
    scale) and are dropped; the nets stay those of separate runs, bit for bit.
    """
    n = body.dim
    if n > 6 or reference_gauge.dim != n:
        raise BadDimensions("greedy nets need bodies of one dimension n <= 6")
    if len(deltas) == 0 or not all(math.isfinite(d) and d > 0 for d in deltas):
        raise BadDimensions(f"each delta must be positive and finite, got {deltas!r}")
    rng = as_generator(seed)
    cloud = _body_cloud(body, int(min(65536, max(8192, 4000 * 4**n))), rng)

    selected, inserted = [cloud[0].copy()], [math.inf]
    dist = reference_gauge.gauge_many(cloud - cloud[0])
    while True:
        cloud, dist = _drop_settled(dist >= min(deltas), cloud, dist)
        if not len(dist):
            break
        idx = int(np.argmax(dist))
        selected.append(cloud[idx].copy())  # compaction overwrites the cloud's rows
        inserted.append(dist[idx])
        np.minimum(dist, reference_gauge.gauge_many(cloud - cloud[idx]), out=dist)
    points, inserted = np.array(selected), np.array(inserted)

    # construction invariant, checked per scale: each point's distance to those before it
    closest = [np.inf] + [reference_gauge.gauge_many(points[j] - points[:j]).min()
                          for j in range(1, len(points))]

    fresh = _body_cloud(body, _NET_CERTIFICATE_SAMPLES, as_generator(rng.integers(2**63)))
    mind = np.full(len(fresh), np.inf)
    nets, done = {}, 0
    for delta in sorted(set(deltas), reverse=True):  # ever longer prefixes
        size = int(np.count_nonzero(inserted >= delta))
        if min(closest[:size]) < delta - 1e-9:
            raise Saturation("internal error: greedy selection lost separation")
        for p in points[done:size]:
            np.minimum(mind, reference_gauge.gauge_many(fresh - p), out=mind)
            fresh, mind = _drop_settled(~(mind <= min(deltas) + 1e-12), fresh, mind)
        done = size
        covered = np.count_nonzero(mind <= delta + 1e-12) + _NET_CERTIFICATE_SAMPLES - len(mind)
        coverage = covered / _NET_CERTIFICATE_SAMPLES  # dropped rows (never NaN) are covered
        nets[delta] = NetReport(points[:size].copy(), coverage >= 0.999, coverage)
    return [nets[d] for d in deltas]


def greedy_net(body: Body, reference_gauge: Body, delta: float, seed=0) -> NetReport:
    """The net of ``greedy_nets`` at the one scale ``delta``."""
    return greedy_nets(body, reference_gauge, (delta,), seed)[0]


def _slice_length(body: Body, line: Subspace, offset) -> float:
    """Exact 1-D volume of the slice of the body by offset + ``line``, relative
    to [-1, 1]: the mean of its two radial lengths along +-frame, each by
    bisection; 0 when the offset's component across the line is outside."""
    z = offset - line.project(offset)  # only the perpendicular component moves the slice
    if body.gauge(z) >= 1.0:
        return 0.0
    u = np.array([[1.0], [-1.0]]) @ line.frame
    hi = np.ones(2)
    for _ in range(60):
        inside = body.gauge_many(z + hi[:, None] * u) <= 1.0
        if not np.any(inside):
            break
        hi[inside] *= 2.0
    lo = np.zeros(2)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        inside = body.gauge_many(z + mid[:, None] * u) <= 1.0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return float(0.5 * (lo[0] + lo[1]))


def _brunn_margin(body: Body, line: Subspace, offsets):
    """Central chord length, and the smallest central - offset length over the offsets."""
    central = _slice_length(body, line, np.zeros(body.dim))
    return central, min(central - _slice_length(body, line, z) for z in offsets)
