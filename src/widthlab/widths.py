"""Width computations and section-radius lower bounds.

Exact Kolmogorov widths for ellipsoids (the tail semiaxis), brute-force
Gelfand/Kolmogorov searches at small n, the duality cross-check, the
truncated-multiplier tail identity, the lower-bound evaluators for section
radii of coefficient bodies, and the smoothness-scaling fits.

The brute-force searches are upper-bound constructions (best subspace
found by a batched compass search over frames, every objective scoring a
whole stack of frames at once); the radius evaluators are lower bounds
with an empirically calibrated constant.  Tests therefore compare the two
against exact oracles only where those exist, and otherwise check
one-sided validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _optim
from .bodies import Body, LpBall, euclidean_ball, induced_ball, linear_image
from .errors import BadDimensions, BadOrder, NotMonotone
from .linalg import Subspace, as_generator, full_space, min_singular_value, random_subspace
from .manifolds import TwoPointSpace
from .stochastic import (_euclidean_image_matrix, _section_radii, expectation_norm,
                         section_radius)
from .systems import trig_prefix_system

#: calibration keeps this fraction of the smallest training ratio as a
#: safety margin for out-of-sample validity (the constant is only asserted
#: to exist, not to have a particular value)
CALIBRATION_MARGIN = 0.75
#: random starts of each inner supremum in the brute-force frame searches,
#: drawn once per search and shared by every frame
_INNER_RESTARTS = 12
#: compass search over frames: scored random frames it refines, the first
#: step (below 1, so a moved frame keeps full rank) and the step it stops
#: at, the relative decrease a move must make, and the round cap
_REFINE_TOP = 3
_STEP_START = 0.5
_STEP_MIN = 1e-10
_DECREASE_RTOL = 1e-12
_MAX_ROUNDS = 500


@dataclass(frozen=True)
class WidthResult:
    kind: str                 # "gelfand" or "kolmogorov"
    order: int
    value: float
    method: str               # "exact", "brute_force", "lower_bound"
    witness: Subspace | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.order,
            "value": self.value,
            "method": self.method,
            "witness": None if self.witness is None else self.witness.frame.tolist(),
        }


@dataclass(frozen=True)
class CalibrationConstant:
    context: str
    value: float
    trials: int

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0):
            raise BadDimensions("calibrated constants must be finite and positive")


def ellipsoid_kolmogorov_exact(semiaxes, m: int) -> float:
    """Kolmogorov width of an axis-aligned ellipsoid in the Euclidean norm.

    With semiaxes sorted descending the best m-dimensional approximating
    subspace spans the m longest axes and the width is the next semiaxis;
    m = n gives 0.
    """
    a = np.asarray(semiaxes, dtype=float)
    if a.ndim != 1 or len(a) == 0 or np.any(a <= 0):
        raise BadOrder("semiaxes must be a nonempty positive vector")
    if np.any(np.diff(a) > 1e-12):
        raise BadOrder("semiaxes must be sorted descending")
    if not 0 <= m <= len(a):
        raise BadOrder(f"order must be in 0..{len(a)}")
    if m == len(a):
        return 0.0
    return float(a[m])


class _QuotientNorm(Body):
    """Seminorm x -> min_y in span ||x - y||_Z, for a general target gauge."""

    def __init__(self, target: Body, frame: np.ndarray):
        self.target = target
        self.frame = np.asarray(frame, dtype=float)
        self.dim = self.frame.shape[1]
        self.label = f"dist-to-span[{target.label}]"

    def gauge_many(self, points):
        return self.gauge_grad_many(points)[0]

    def gauge_grad_many(self, points):
        x = np.atleast_2d(np.asarray(points, dtype=float))
        g, offsets = _optim.offset_minima(self.target, x, -self.frame)
        # envelope: the distance gradient is the gauge gradient at the residual
        return g, self.target.gauge_grad_many(x - offsets @ self.frame)[1]


def _orthonormal(mats: np.ndarray) -> np.ndarray:
    """Orthonormal frames spanning the rows of each matrix of a stack."""
    q, _ = np.linalg.qr(np.swapaxes(mats, -1, -2))
    return np.swapaxes(q, -1, -2)


def _sup_distances(body: Body, target: Body, frames: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """sup over the body of the target-gauge distance to the span of each
    frame of a (k, m, n) stack, from the shared (restarts, n) ``starts``."""
    n = body.dim
    if isinstance(target, LpBall) and target.p == 2.0:
        proj = np.eye(n) - frames.transpose(0, 2, 1) @ frames
        a = _euclidean_image_matrix(body)
        if a is not None:
            return np.linalg.svd(proj @ a, compute_uv=False)[:, 0]
        values, _ = _optim.ratio_ascent(target, body,
                                        np.broadcast_to(starts, (len(frames),) + starts.shape),
                                        num_maps=proj)
        return values
    return np.array([_optim.ratio_ascent(_QuotientNorm(target, frame), body, starts[None])[0][0]
                     for frame in frames])


def _search_frames(objective, rows: int, n: int, start_dim: int, restarts: int,
                   seed) -> tuple[float, np.ndarray]:
    """Smallest ``objective(frames, starts)`` found over (rows, n) frames by a
    batched compass search: each round moves every live frame by +-step along
    each coordinate matrix and scores all the moves in one call.  The inner
    ``starts`` are drawn once, so a frame's value depends on that frame alone."""
    rng = as_generator(seed)
    starts = rng.standard_normal((_INNER_RESTARTS, start_dim))
    frames = _orthonormal(rng.standard_normal((restarts, rows, n)))
    values = objective(frames, starts)
    keep = np.argsort(values, kind="stable")[:_REFINE_TOP]
    frames, values = frames[keep], values[keep]
    step = np.full(len(frames), _STEP_START)
    coords = np.eye(rows * n).reshape(rows * n, rows, n)
    moves = np.concatenate([coords, -coords])
    for _ in range(_MAX_ROUNDS):
        live = np.flatnonzero(step >= _STEP_MIN)
        if not live.size:
            break
        cands = _orthonormal(frames[live, None] + step[live, None, None, None] * moves)
        cand_vals = objective(cands.reshape(-1, rows, n), starts).reshape(len(live), -1)
        pick = np.argmin(cand_vals, axis=1)
        best = cand_vals[np.arange(len(live)), pick]
        took = best < values[live] - _DECREASE_RTOL * np.abs(values[live])
        frames[live[took]] = cands[took, pick[took]]
        values[live[took]] = best[took]
        step[live[~took]] *= 0.5
    top = int(np.argmin(values))
    return float(values[top]), frames[top]


def brute_force_kolmogorov(body: Body, target: Body, m: int, restarts: int = 256,
                           seed=0) -> WidthResult:
    """Best m-dimensional approximating subspace found by random + local search.

    The returned value is an upper bound on the true width; for ellipsoids in
    the Euclidean norm the inner supremum is exact (largest singular value of
    the complementary restriction), so the search quality is testable against
    the closed-form oracle.
    """
    n = body.dim
    if n > 5:
        raise BadDimensions("brute-force widths are limited to n <= 5")
    if not 0 <= m <= n:
        raise BadOrder(f"order must be in 0..{n}")
    if m == n:
        return WidthResult("kolmogorov", m, 0.0, "brute_force", full_space(n))
    if m == 0:
        val = section_radius(body, target, full_space(n), restarts=max(restarts // 4, 8),
                             seed=seed)
        return WidthResult("kolmogorov", m, float(val), "brute_force", None)

    val, frame = _search_frames(partial(_sup_distances, body, target), m, n, n, restarts, seed)
    return WidthResult("kolmogorov", m, float(val), "brute_force", Subspace(frame))


def brute_force_gelfand(body: Body, target: Body, m: int, restarts: int = 256,
                        seed=0) -> WidthResult:
    """Best codimension-m section found: the smallest section radius.

    Subspaces of dimension n - m are searched directly; the witness is the
    best section subspace.
    """
    n = body.dim
    if n > 5:
        raise BadDimensions("brute-force widths are limited to n <= 5")
    if not 0 <= m <= n:
        raise BadOrder(f"order must be in 0..{n}")
    if m == n:
        return WidthResult("gelfand", m, 0.0, "brute_force", None)
    if m == 0:
        val = section_radius(body, target, full_space(n), restarts=max(restarts // 4, 8),
                             seed=seed)
        return WidthResult("gelfand", m, float(val), "brute_force", full_space(n))
    val, frame = _search_frames(partial(_section_radii, body, target), n - m, n, n - m,
                                restarts, seed)
    return WidthResult("gelfand", m, float(val), "brute_force", Subspace(frame))


def linear_cowidth(body: Body, target: Body, m: int, restarts: int = 256,
                   seed=0) -> WidthResult:
    """Optimal worst-case diameter of preimages under m linear functionals.

    Equals twice the Gelfand width, so no separate optimizer is needed.
    """
    gel = brute_force_gelfand(body, target, m, restarts=restarts, seed=seed)
    return WidthResult("cowidth", m, 2.0 * gel.value, gel.method, gel.witness)


def width_duality_check(matrix, m: int, restarts: int = 64, seed=0,
                        tol: float = 1e-2) -> bool:
    """Gelfand width of the adjoint image vs Kolmogorov width of the image.

    For a linear map between Euclidean spaces the two agree; checked here by
    running both brute-force searches.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n > 5:
        raise BadDimensions("duality checks are limited to n <= 5")
    kol = brute_force_kolmogorov(linear_image(euclidean_ball(n), a), LpBall(n, 2.0),
                                 m, restarts=restarts, seed=seed)
    gel = brute_force_gelfand(linear_image(euclidean_ball(n), a.T), LpBall(n, 2.0),
                              m, restarts=restarts, seed=seed)
    return abs(kol.value - gel.value) <= tol


def fourier_tail_sup(values, m: int) -> float:
    """Worst L_2 truncation error over the multiplier image of the unit ball.

    For a nonincreasing multiplier sequence the supremum of the tail after
    keeping m coefficients is exactly the next entry.
    """
    seq = np.asarray(getattr(values, "sequence", values), dtype=float)
    if seq is None or seq.ndim != 1 or len(seq) == 0:
        raise BadOrder("need a 1-D multiplier sequence")
    mags = np.abs(seq)
    if np.any(np.diff(mags) > 1e-12):
        raise NotMonotone("multiplier magnitudes must be nonincreasing")
    if not 0 <= m <= len(seq):
        raise BadOrder(f"order must be in 0..{len(seq)}")
    if m == len(seq):
        return 0.0
    return float(mags[m])


# --------------------------------------------------------------------------
# section-radius lower bounds for coefficient bodies
# --------------------------------------------------------------------------

_EXPECTATION_CACHE: dict = {}
_E_SEED = 20240  # fixed stream for the cached sphere expectations
_E_SAMPLES = 40_000  # sphere samples per cached expectation


def _cached_expectation(system, p: float) -> float:
    key = (system.key, float(p))
    if key not in _EXPECTATION_CACHE:
        est = expectation_norm(induced_ball(system, p), samples=_E_SAMPLES, seed=_E_SEED)
        _EXPECTATION_CACHE[key] = est.value
    return _EXPECTATION_CACHE[key]


def l1_section_radius_bound(matrix, system, p: float) -> float:
    """Bound factor for the radius of high-dimensional sections of the image
    body, measured in the induced 1-norm: (smallest singular value) *
    E[induced p-gauge]^{-3/2}, for p >= 2.

    A calibrated constant times this factor bounds the radius of sections
    by subspaces of dimension >= 2n/3 from below; ``calibrate_radius_constant``
    fits the constant and the harness validates it on fresh seeds.
    """
    if p < 2:
        raise BadDimensions("the bound needs p >= 2")
    rho = min_singular_value(matrix)
    return float(rho * _cached_expectation(system, p) ** (-1.5))


def lq_section_radius_bound(matrix, system, p: float, q: float, s: int) -> float:
    """Bound factor for the radius of proportional sections measured in the
    induced q-norm, 1 < q <= 2 <= p: rho * (E_q' * E_p)^(-n/s) with
    1/q + 1/q' = 1; a calibrated constant times it is the lower bound."""
    if p < 2:
        raise BadDimensions("the bound needs p >= 2")
    if not 1.0 < q <= 2.0:
        raise BadDimensions("q must lie in (1, 2]")
    n = system.n
    if not 1 <= s <= n:
        raise BadDimensions("section dimension out of range")
    q_dual = q / (q - 1.0)
    rho = min_singular_value(matrix)
    e_p = _cached_expectation(system, p)
    e_qd = _cached_expectation(system, q_dual)
    return float(rho * (e_qd * e_p) ** (-float(n) / float(s)))


def _trial_matrix(rng, n: int) -> np.ndarray:
    # invertible diagonal with entries spread over roughly [1/e, e]
    return np.diag(np.exp(rng.uniform(-1.0, 1.0, n)))


def radius_ratio_samples(kind: str, seeds, dims=(3, 4, 5, 6), ps=(2.0, 4.0),
                         qs=(1.25, 1.5, 2.0), subspaces: int = 3,
                         restarts: int = 24) -> list[float]:
    """Observed ratios (found section radius) / (bound factor).

    ``kind`` is "l1" (sections of dimension ceil(2n/3), radius in the induced
    1-norm) or "lq" (sections of dimension ceil(n/2), radius in the induced
    q-norm).  The minimum of these ratios over a training seed set is the
    calibrated constant.  All (seed, subspace) problems of one cell (n, p, q)
    go to one ascent call: the section of A*B_p by span(F) has q-norm radius
    max g_q(y F) / g_p(y F A^{-T}).  Ratios come seed-major, as drawn.
    """
    if kind not in ("l1", "lq"):
        raise BadDimensions("kind must be 'l1' or 'lq'")
    if restarts < 8:
        raise BadDimensions("need at least 8 restarts")
    seeds = [int(seed) for seed in seeds]
    cells = [(n, p, q) for n in dims for p in ps
             for q in (qs if kind == "lq" else (None,))]
    ratios = np.empty((len(seeds), len(cells), subspaces))
    for c, (n, p, q) in enumerate(cells):
        system = trig_prefix_system(n)
        r = math.ceil(2 * n / 3) if kind == "l1" else math.ceil(n / 2)
        factors, num_maps, den_maps, starts = [], [], [], []
        for seed in seeds:
            rng = as_generator([seed, n, int(p * 4), 0 if q is None else int(q * 4)])
            a = _trial_matrix(rng, n)
            if kind == "l1":
                factors.append(l1_section_radius_bound(a, system, p))
            else:
                factors.append(lq_section_radius_bound(a, system, p, q, r))
            inv_t = np.linalg.inv(a).T
            for _ in range(subspaces):
                frame = random_subspace(n, r, rng).frame
                num_maps.append(frame)
                den_maps.append(frame @ inv_t)
                starts.append(as_generator(rng.integers(2**31)).standard_normal((restarts, r)))
        gauge = induced_ball(system, 1.0 if q is None else q)
        radii, _ = _optim.ratio_ascent(gauge, induced_ball(system, p), np.array(starts),
                                       num_maps=np.array(num_maps),
                                       den_maps=np.array(den_maps))
        ratios[:, c, :] = radii.reshape(len(seeds), subspaces) / np.array(factors)[:, None]
    return ratios.ravel().tolist()


def calibrate_radius_constant(kind: str, seeds, **grid) -> CalibrationConstant:
    """Fit the universal constant as the smallest training ratio, shrunk by
    :data:`CALIBRATION_MARGIN` for out-of-sample headroom, then freeze it.  A
    non-finite or non-positive smallest ratio raises ``BadDimensions``."""
    ratios = radius_ratio_samples(kind, seeds, **grid)
    return CalibrationConstant(context=f"radius-{kind}",
                               value=CALIBRATION_MARGIN * float(np.min(ratios)),
                               trials=len(ratios))


def radius_bound_violations(kind: str, constant: CalibrationConstant, seeds,
                            **grid) -> tuple[int, int, float]:
    """Validation pass: (trials, violations, worst relative margin).

    A violation is a sampled section whose found radius falls below the
    calibrated bound, or whose ratio is not finite; the margin is
    min(ratio/const - 1), NaN when a ratio is NaN.
    """
    ratios = radius_ratio_samples(kind, seeds, **grid)
    arr = np.asarray(ratios) / constant.value
    violations = int(np.sum(~(np.isfinite(arr) & (arr >= 1.0))))
    return len(arr), violations, float(arr.min() - 1.0)


# --------------------------------------------------------------------------
# smoothness scaling
# --------------------------------------------------------------------------


def sobolev_width_order(space: TwoPointSpace, gamma: float, n_levels,
                        method: str = "bound") -> float:
    """Log-log slope of the width decay for smoothness ``gamma`` on ``space``.

    method="bound": the section-radius lower-bound curve evaluated at
    order s = tau_N, whose value is the multiplier rate at s^(2/d); its
    slope is exactly -gamma/d.

    method="exact": Kolmogorov widths of the truncated-multiplier ellipsoid
    in the Euclidean norm (tail semiaxis), fitted over every order m between
    tau_(min level) and tau_(max level); the dense staircase averages out
    the eigenspace blocks.
    """
    if gamma <= 0:
        raise BadDimensions("gamma must be positive")
    levels = sorted(int(N) for N in n_levels)
    if len(levels) < 2 or levels[0] < 1:
        raise BadDimensions("need at least two levels >= 1")
    d = space.d
    taus = {N: space.tau(N) for N in levels}
    if method == "bound":
        xs = np.array([taus[N] for N in levels], dtype=float)
        ys = xs ** (2.0 / d)
        vals = np.array([v ** (-gamma / 2.0) for v in ys])
        return float(np.polyfit(np.log(xs), np.log(vals), 1)[0])
    if method == "exact":
        top = levels[-1] + 1
        lams = np.concatenate([
            np.full(space.eigenspace_dim(k), space.eigenvalue(k) ** (-gamma / 2.0))
            for k in range(1, top + 1)
        ])
        start = int(taus[levels[0]])
        stop = int(taus[levels[-1]])
        ms = np.arange(start, stop + 1)
        widths = lams[ms]  # width of order m is the (m+1)-th semiaxis
        return float(np.polyfit(np.log(ms), np.log(widths), 1)[0])
    raise BadDimensions("method must be 'bound' or 'exact'")
