"""Width computations and section-radius lower bounds.

Exact Kolmogorov widths of diagonal operators (the tail semiaxis), which
also give the worst truncation error of a multiplier; brute-force
Gelfand/Kolmogorov searches at small n; the lower-bound factors and
observed ratios for section radii of coefficient bodies; and the
smoothness-scaling fit, whose one call gives both the lower-bound and the
exact-width slope.

The brute-force searches (best subspace found by a batched compass search
over frames, each objective scoring a stack of frames) are upper bounds
where each frame's inner supremum is exact, for ellipsoid pairs and 1-D
sections, and not where it is an ascent's lower bound; the radius
evaluators are lower bounds with an empirically calibrated constant, which
the harness fits on training seeds and validates on fresh ones.  Tests
therefore compare the two against exact oracles only where those exist,
and otherwise check one-sided validity.  One frame search serves both
widths: by polar duality d_m(K, Z) = d^m(Z^o, K^o) for symmetric convex
bodies in finite dimensions (Ioffe and Tikhomirov 1968; Pinkus, n-Widths in
Approximation Theory, 1985, ch. II), so a Kolmogorov width is the Gelfand
width of the polars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _optim
from .bodies import Body, _conjugate, _polar, induced_ball
from .errors import BadDimensions, BadOrder, DimensionMismatch
from .linalg import Subspace, _orthonormal, as_generator, full_space, min_singular_value
from .manifolds import TwoPointSpace, multiplier_diagonal, sobolev_multiplier
from .stochastic import _section_radii, expectation_norm, section_radius
from .systems import trig_prefix_system

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
    value: float
    witness: Subspace | None = None


def ellipsoid_kolmogorov_exact(semiaxes, m: int) -> float:
    """Kolmogorov width of an axis-aligned ellipsoid in the Euclidean norm.

    With semiaxes sorted descending the best m-dimensional approximating
    subspace spans the m longest axes and the width is the next semiaxis;
    m = n gives 0 (Kolmogorov 1936).  For the diagonal of a nonincreasing
    multiplier this is also the worst L_2 error of keeping m coefficients.
    """
    a = np.asarray(semiaxes, dtype=float)
    if a.ndim != 1 or len(a) == 0 or not np.all(a > 0):  # NaN too
        raise BadOrder("semiaxes must be a nonempty positive vector")
    if np.any(np.diff(a) > 1e-12):
        raise BadOrder("semiaxes must be sorted descending")
    if not isinstance(m, (int, np.integer)) or not 0 <= m <= len(a):
        raise BadOrder(f"order must be an integer in 0..{len(a)}")
    if m == len(a):
        return 0.0
    return float(a[m])


def _search_frames(body: Body, target: Body, rows: int, restarts: int,
                   seed) -> tuple[float, np.ndarray]:
    """Smallest section radius of ``body`` in the ``target`` gauge found over
    (rows, n) frames by a batched compass search: each round moves every live
    frame by +-step along each coordinate matrix and scores all the moves in
    one call.  The inner ``starts`` are drawn once, so a frame is scored by
    itself alone (BLAS may still move its bits by an ulp with the row count)."""
    n = body.dim
    rng = as_generator(seed)
    starts = rng.standard_normal((_INNER_RESTARTS, rows))
    frames = _orthonormal(rng.standard_normal((restarts, rows, n)))
    values = _section_radii(body, target, frames, starts)
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
        cand_vals = _section_radii(body, target, cands.reshape(-1, rows, n),
                                   starts).reshape(len(live), -1)
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
    """Best m-dimensional approximating subspace, as the Gelfand search of the
    polars: d_m(body, target) = d^m(target^o, body^o).

    The sup over the body of the target distance to a subspace L is the
    radius of the section of target^o by the complement of L, in the body^o
    gauge, so the witness is the complement of the best section found.  For
    ellipsoids in the Euclidean norm the polars are ellipsoids and the
    section radii are exact, so the search quality is testable against the
    closed-form oracle.
    """
    gel = brute_force_gelfand(_polar(target), _polar(body), m, restarts=restarts, seed=seed)
    n = body.dim
    witness = (full_space(n) if gel.witness is None else
               None if gel.witness.dim == n else gel.witness.complement())
    return WidthResult(gel.value, witness)


def brute_force_gelfand(body: Body, target: Body, m: int, restarts: int = 256,
                        seed=0) -> WidthResult:
    """Best codimension-m section found: the smallest section radius.

    Subspaces of dimension n - m are searched directly; the witness is the
    best section subspace.
    """
    n = body.dim
    if target.dim != n:
        raise DimensionMismatch(f"bodies of dimensions {n} and {target.dim}")
    if n > 5:
        raise BadDimensions("brute-force widths are limited to n <= 5")
    if restarts < 1:
        raise BadDimensions("need at least 1 restart")
    if not isinstance(m, (int, np.integer)) or not 0 <= m <= n:
        raise BadOrder(f"order must be an integer in 0..{n}")
    if m == n:
        return WidthResult(0.0, None)
    if m == 0:
        val = section_radius(body, target, full_space(n), restarts=max(restarts // 4, 8),
                             seed=seed)
        return WidthResult(float(val), full_space(n))
    val, frame = _search_frames(body, target, n - m, restarts, seed)
    return WidthResult(float(val), Subspace(frame))


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
    by subspaces of dimension >= 2n/3 from below; the harness fits the
    constant on training seeds and validates it on fresh ones.
    """
    if not p >= 2:
        raise BadDimensions("the bound needs p >= 2")
    rho = min_singular_value(_system_matrix(matrix, system))
    return float(rho * _cached_expectation(system, p) ** (-1.5))


def lq_section_radius_bound(matrix, system, p: float, q: float, s: int) -> float:
    """Bound factor for the radius of proportional sections measured in the
    induced q-norm, 1 < q <= 2 <= p: rho * (E_q' * E_p)^(-n/s) with
    1/q + 1/q' = 1; a calibrated constant times it is the lower bound."""
    if not p >= 2:
        raise BadDimensions("the bound needs p >= 2")
    if not 1.0 < q <= 2.0:
        raise BadDimensions("q must lie in (1, 2]")
    n = system.n
    if not 1 <= s <= n:
        raise BadDimensions("section dimension out of range")
    rho = min_singular_value(_system_matrix(matrix, system))
    e_p = _cached_expectation(system, p)
    e_qd = _cached_expectation(system, _conjugate(q))
    return float(rho * (e_qd * e_p) ** (-float(n) / float(s)))


def _system_matrix(matrix, system) -> np.ndarray:
    """``matrix`` as an n x n float array, n the system size, else DimensionMismatch."""
    a = np.asarray(matrix, dtype=float)
    if a.shape != (system.n, system.n):
        raise DimensionMismatch(f"matrix shape {a.shape} != ({system.n}, {system.n})")
    return a


def _trial_matrix(rng, n: int) -> np.ndarray:
    # invertible diagonal with entries spread over roughly [1/e, e]
    return np.diag(np.exp(rng.uniform(-1.0, 1.0, n)))


def radius_ratio_samples(kind: str, seeds, dims, ps, qs, subspaces: int,
                         restarts: int) -> list[float]:
    """Observed ratios (found section radius) / (bound factor).

    ``kind`` is "l1" (sections of dimension ceil(2n/3), radius in the induced
    1-norm) or "lq" (sections of dimension ceil(n/2), radius in the induced
    q-norm), over the cells (n, p, q) of ``dims`` x ``ps`` x ``qs`` (no q for
    "l1"), ``subspaces`` sections per seed and cell, ``restarts`` starts each.
    The minimum of these ratios over a training seed set is the calibrated
    constant.  All (seed, subspace) problems of one cell go to one ascent
    call: the section of A*B_p by span(F) has q-norm radius
    max g_q(y F) / g_p(y F A^{-T}), the frames F of one cell from one
    batched QR.  Ratios come seed-major, as drawn.
    """
    if kind not in ("l1", "lq"):
        raise BadDimensions("kind must be 'l1' or 'lq'")
    if restarts < 8:
        raise BadDimensions("need at least 8 restarts")
    seeds = [int(seed) for seed in seeds]
    if not seeds or subspaces < 1:
        raise BadDimensions("need at least one seed and one subspace")
    cells = [(n, p, q) for n in dims for p in ps
             for q in (qs if kind == "lq" else (None,))]
    ratios = np.empty((len(seeds), len(cells), subspaces))
    for c, (n, p, q) in enumerate(cells):
        system = trig_prefix_system(n)
        r = math.ceil(2 * n / 3) if kind == "l1" else math.ceil(n / 2)
        factors, inv_ts, draws, starts = [], [], [], []
        for seed in seeds:
            rng = as_generator([seed, n, int(p * 4), 0 if q is None else int(q * 4)])
            a = _trial_matrix(rng, n)
            if kind == "l1":
                factors.append(l1_section_radius_bound(a, system, p))
            else:
                factors.append(lq_section_radius_bound(a, system, p, q, r))
            inv_ts.append(np.linalg.inv(a).T)
            for _ in range(subspaces):  # random_subspace's draw, then the starts' seed
                draws.append(rng.standard_normal((r, n)))
                starts.append(as_generator(rng.integers(2**31)).standard_normal((restarts, r)))
        frames = _orthonormal(np.array(draws))
        den_maps = frames.reshape(len(seeds), subspaces, r, n) @ np.array(inv_ts)[:, None]
        gauge = induced_ball(system, 1.0 if q is None else q)
        radii = _optim.ratio_ascent(gauge, induced_ball(system, p), np.array(starts),
                                    num_maps=frames, den_maps=den_maps.reshape(frames.shape))
        ratios[:, c, :] = radii.reshape(len(seeds), subspaces) / np.array(factors)[:, None]
    return ratios.ravel().tolist()


# --------------------------------------------------------------------------
# smoothness scaling
# --------------------------------------------------------------------------


def sobolev_width_order(space: TwoPointSpace, gamma: float,
                        n_levels) -> tuple[float, float]:
    """Log-log slopes ``(bound, exact)`` of the width decay for smoothness
    ``gamma`` on ``space``.

    bound: the section-radius lower-bound curve evaluated at order
    s = tau_N, whose value is the multiplier rate at s^(2/d); its slope is
    exactly -gamma/d.

    exact: Kolmogorov widths of the truncated-multiplier ellipsoid in the
    Euclidean norm (tail semiaxis), fitted over every order m between
    tau_(min level) and tau_(max level); the dense staircase averages out
    the eigenspace blocks.
    """
    rate = sobolev_multiplier(gamma)
    levels = sorted(int(N) for N in n_levels)
    if len(set(levels)) < 2 or levels[0] < 1:
        raise BadDimensions("need at least two distinct levels >= 1")
    taus = [space.tau(N) for N in levels]
    xs = np.array(taus, dtype=float)
    vals = np.array([rate(v) for v in xs ** (2.0 / space.d)])
    bound = float(np.polyfit(np.log(xs), np.log(vals), 1)[0])
    # the width of order m, tau_lo <= m <= tau_hi, is the (m+1)-th semiaxis
    widths = multiplier_diagonal(rate, space, taus[-1] + 1)[taus[0]:]
    exact = np.polyfit(np.log(np.arange(taus[0], taus[-1] + 1)), np.log(widths), 1)[0]
    return bound, float(exact)
