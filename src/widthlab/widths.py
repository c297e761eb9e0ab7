"""Width computations and section-radius lower bounds.

Exact Kolmogorov widths for ellipsoids (the tail semiaxis), brute-force
Gelfand/Kolmogorov searches at small n, the duality cross-check, the
truncated-multiplier tail identity, the lower-bound evaluators for section
radii of coefficient bodies, and the smoothness-scaling fits.

The brute-force searches are upper-bound constructions (best subspace
found); the radius evaluators are lower bounds with an empirically
calibrated constant.  Tests therefore compare the two against exact oracles
only where those exist, and otherwise check one-sided validity.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import _optim
from .bodies import Body, LpBall, euclidean_ball, induced_ball, linear_image
from .errors import BadDimensions, BadOrder, NotMonotone
from .linalg import Subspace, as_generator, full_space, min_singular_value, random_subspace
from .manifolds import TwoPointSpace
from .stochastic import expectation_norm, section_radius
from .systems import trig_prefix_system

#: calibration keeps this fraction of the smallest training ratio as a
#: safety margin for out-of-sample validity (the constant is only asserted
#: to exist, not to have a particular value)
CALIBRATION_MARGIN = 0.75


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


class _ProjectedEuclidean(Body):
    """Seminorm x -> ||C x||_2 for a complement frame C (distance to a span)."""

    def __init__(self, comp_frame: np.ndarray):
        self.comp = np.asarray(comp_frame, dtype=float)
        self.dim = self.comp.shape[1]
        self.label = "dist-to-span"

    def gauge_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts @ self.comp.T, axis=1)

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        proj = pts @ self.comp.T
        g = np.linalg.norm(proj, axis=1)
        grad = (proj / np.maximum(g, 1e-300)[:, None]) @ self.comp
        return g, grad


class _QuotientNorm(Body):
    """Seminorm x -> min_y in span ||x - y||_Z, for a general target gauge."""

    def __init__(self, target: Body, frame: np.ndarray):
        self.target = target
        self.frame = np.asarray(frame, dtype=float)
        self.dim = self.frame.shape[1]
        self.label = f"dist-to-span[{target.label}]"

    def _solve(self, x):
        def objective(c):
            g, grad = self.target.gauge_grad_many((x - c @ self.frame)[None, :])
            return g[0], -grad[0] @ self.frame.T

        res = minimize(objective, np.zeros(self.frame.shape[0]), jac=True,
                       method="L-BFGS-B", options={"maxiter": 200, "ftol": 1e-12})
        return res.fun, x - res.x @ self.frame

    def gauge_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.array([self._solve(x)[0] for x in pts])

    def gauge_grad_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = np.empty(len(pts))
        grad = np.empty_like(pts)
        for i, x in enumerate(pts):
            val, residual = self._solve(x)
            g[i] = val
            # envelope: the distance gradient is the gauge gradient at the residual
            _, gr = self.target.gauge_grad_many(residual[None, :])
            grad[i] = gr[0]
        return g, grad


def _frame_from_params(params: np.ndarray, rows: int, n: int) -> np.ndarray:
    mat = params.reshape(rows, n)
    q, _ = np.linalg.qr(mat.T)
    return q[:, :rows].T


def _frame_seed(frame: np.ndarray, base: int) -> int:
    return (zlib.crc32(np.ascontiguousarray(frame).tobytes()) ^ (base & 0xFFFFFFFF)) & 0x7FFFFFFF


def _sup_distance_to_span(body: Body, target: Body, frame: np.ndarray, seed: int,
                          restarts: int = 12) -> float:
    """sup over the body of the target-gauge distance to the span of ``frame``."""
    n = body.dim
    from .stochastic import _euclidean_image_matrix

    comp = Subspace(frame).complement().frame if frame.shape[0] < n else None
    euclid_target = isinstance(target, LpBall) and target.p == 2.0
    if euclid_target:
        a = _euclidean_image_matrix(body)
        if a is not None:
            if comp is None:
                return 0.0
            return float(np.linalg.svd(comp @ a, compute_uv=False)[0])
        num = _ProjectedEuclidean(comp)
    else:
        num = _QuotientNorm(target, frame)
    starts = as_generator(_frame_seed(frame, seed)).standard_normal((1, restarts, n))
    values, _ = _optim.ratio_ascent(num, body, starts, polish=True)
    return float(values[0])


def _search_frames(objective, rows: int, n: int, restarts: int, seed,
                   refine_top: int = 3) -> tuple[float, np.ndarray]:
    """Minimize a span-invariant objective over frames by multistart + NM."""
    rng = as_generator(seed)
    cands = []
    for _ in range(restarts):
        params = rng.standard_normal(rows * n)
        frame = _frame_from_params(params, rows, n)
        cands.append((objective(frame), params))
    cands.sort(key=lambda t: t[0])
    best_val, best_params = cands[0]
    best_frame = _frame_from_params(best_params, rows, n)
    for val, params in cands[:refine_top]:
        res = minimize(lambda p: objective(_frame_from_params(p, rows, n)), params,
                       method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-10,
                                "maxiter": 250 * rows * n})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_frame = _frame_from_params(res.x, rows, n)
    return best_val, best_frame


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

    def objective(frame):
        return _sup_distance_to_span(body, target, frame, seed)

    val, frame = _search_frames(objective, m, n, restarts, seed)
    return WidthResult("kolmogorov", m, float(val), "brute_force", Subspace(frame))


def brute_force_gelfand(body: Body, target: Body, m: int, restarts: int = 256,
                        seed=0) -> WidthResult:
    """Best codimension-m section found: minimize the section radius.

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
    rows = n - m

    def objective(frame):
        return section_radius(body, target, Subspace(frame), restarts=12,
                              seed=_frame_seed(frame, seed))

    val, frame = _search_frames(objective, rows, n, restarts, seed)
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


def _cached_expectation(system, p: float, samples: int) -> float:
    key = (system.key, float(p), int(samples))
    if key not in _EXPECTATION_CACHE:
        est = expectation_norm(induced_ball(system, p), samples=samples, seed=_E_SEED)
        _EXPECTATION_CACHE[key] = est.value
    return _EXPECTATION_CACHE[key]


def l1_section_radius_bound(matrix, system, p: float, const: float = 1.0,
                            samples: int = 40_000) -> float:
    """Lower-bound value for the radius of high-dimensional sections of the
    image body, measured in the induced 1-norm: const * (smallest singular
    value) * E[induced p-gauge]^{-3/2}, for p >= 2.

    Valid for sections by subspaces of dimension >= 2n/3 once ``const`` is
    calibrated; the validity protocol lives in the harness.
    """
    if p < 2:
        raise BadDimensions("the bound needs p >= 2")
    rho = min_singular_value(matrix)
    e_p = _cached_expectation(system, p, samples)
    return float(const * rho * e_p ** (-1.5))


def lq_section_radius_bound(matrix, system, p: float, q: float, s: int,
                            const: float = 1.0, samples: int = 40_000) -> float:
    """Lower-bound value for the radius of proportional sections measured in
    the induced q-norm, 1 < q <= 2 <= p: const * rho * (E_q' * E_p)^(-n/s)
    with 1/q + 1/q' = 1."""
    if p < 2:
        raise BadDimensions("the bound needs p >= 2")
    if not 1.0 < q <= 2.0:
        raise BadDimensions("q must lie in (1, 2]")
    n = system.n
    if not 1 <= s <= n:
        raise BadDimensions("section dimension out of range")
    q_dual = q / (q - 1.0)
    rho = min_singular_value(matrix)
    e_p = _cached_expectation(system, p, samples)
    e_qd = _cached_expectation(system, q_dual, samples)
    return float(const * rho * (e_qd * e_p) ** (-float(n) / float(s)))


def _trial_matrix(rng, n: int) -> np.ndarray:
    # invertible diagonal with entries spread over roughly [1/e, e]
    return np.diag(np.exp(rng.uniform(-1.0, 1.0, n)))


def radius_ratio_samples(kind: str, seeds, dims=(3, 4, 5, 6), ps=(2.0, 4.0),
                         qs=(1.25, 1.5, 2.0), subspaces: int = 3,
                         restarts: int = 24, e_samples: int = 40_000) -> list[float]:
    """Observed ratios (found section radius) / (bound factor at const=1).

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
                factors.append(l1_section_radius_bound(a, system, p, 1.0, e_samples))
            else:
                factors.append(lq_section_radius_bound(a, system, p, q, r, 1.0, e_samples))
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


def calibrate_radius_constant(kind: str, seeds, margin: float = CALIBRATION_MARGIN,
                              **grid) -> CalibrationConstant:
    """Fit the universal constant as the smallest training ratio, shrunk by
    ``margin`` for out-of-sample headroom, then freeze it.  A non-finite or
    non-positive smallest ratio raises ``BadDimensions``."""
    ratios = radius_ratio_samples(kind, seeds, **grid)
    return CalibrationConstant(context=f"radius-{kind}",
                               value=margin * float(np.min(ratios)), trials=len(ratios))


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
