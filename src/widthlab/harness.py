"""Batch experiment driver and the named verification suite.

Every inequality the package implements has one named check here, written
once as ``@_check(name, statement)`` over a body that takes the check's own
seed and yields one ``(key, margins, detail)`` per case; ``_gather`` joins
the margins in order and keys the details for the report.  That seed is
drawn from the run seed by hashing the check name, so checks are
independent and the whole suite is reproducible byte for byte.  The 15
checks took 1.3-1.5 s in one process at seed 7 on a 2-core VM; the acceptance
tests rerun the heavy protocols at full scale.  Each task is one runner
``TASKS[name](seed, **fields)``, whose signature is the task's config schema.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bodies, manifolds, stochastic, systems, widths
from .bodies import LpBall, PolarBody, euclidean_ball, induced_ball, linear_image
from .errors import (ConfigError, DimensionMismatch, FloatRange, SingularMatrix,
                     WidthLabError)
from .linalg import as_generator, min_singular_value, orthonormalize, random_subspace
from .stochastic import (expectation_norm, expected_norm_bound, greedy_nets,
                         mc_volume_ratio, section_radius)
from .systems import sphere_harmonics_system, trig_prefix_system, trig_system


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check: a pass flag plus the worst slack seen."""

    name: str
    statement: str
    trials: int
    violations: int
    worst_margin: float
    passed: bool
    details: dict = field(default_factory=dict, compare=False)


def _report(name: str, statement: str, margins, details=None) -> VerificationReport:
    """A non-finite margin is a violation, and makes the worst margin NaN."""
    margins = [float(m) for m in margins]
    violations = sum(1 for m in margins if not (math.isfinite(m) and m >= 0))
    finite = all(math.isfinite(m) for m in margins)
    worst = min(margins, default=float("inf")) if finite else float("nan")
    return VerificationReport(
        name=name,
        statement=statement,
        trials=len(margins),
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        details=details or {},
    )


def _gather(cases) -> tuple[list, dict]:
    """The margins of ``(key, margins, detail)`` cases in order, and each detail by its key."""
    margins, details = [], {}
    for key, case_margins, detail in cases:
        margins.extend(case_margins)
        details[key] = detail
    return margins, details


def _json_ready(obj):
    """``obj`` as plain JSON data with every non-finite float turned into None."""
    return json.loads(json.dumps(obj), parse_constant=lambda _: None)


def check_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


# --------------------------------------------------------------------------
# the named checks
# --------------------------------------------------------------------------

#: check name -> check(seed), in suite order
CHECKS: dict = {}


def _check(name: str, statement: str):
    """Register ``body(s)``, ``s`` the check's own seed, as ``name``; the body
    yields one ``(key, margins, detail)`` per case."""
    def register(body):
        def check(seed: int) -> VerificationReport:
            return _report(name, statement, *_gather(body(check_seed(seed, name))))
        CHECKS[name] = check
        return check
    return register


@_check("volume-identity", "sphere average of gauge^(-n) reproduces known area ratios within 5%")
def check_volume_identity(s):
    cases = [
        (LpBall(2, np.inf), 4.0 / math.pi),
        (linear_image(euclidean_ball(2), np.diag([2.0, 1.0])), 2.0),
    ]
    for i, (body, target) in enumerate(cases):
        est = mc_volume_ratio(body, euclidean_ball(2), samples=200_000, seed=s + i)
        yield (body.label, [0.05 - abs(est.value / target - 1.0)],
               {"estimate": est.value, "target": target})


@_check("expectation-bound", "sphere expectation of the induced p-gauge stays below the "
        "Gaussian-moment bound sqrt(2)*pi^(-1/2p)*Gamma((p+1)/2)^(1/p)")
def check_expectation_bound(s):
    for n in (3, 5, 9):
        system = trig_system((n - 1) // 2)
        for p in (2.0, 4.0, 8.0):
            est = expectation_norm(induced_ball(system, p), samples=30_000, seed=s)
            bound = expected_norm_bound(p)
            yield (f"n={n},p={p}", [bound + est.half_width + 1e-6 - est.value],
                   {"estimate": est.value, "bound": bound})


@_check("santalo", "volume product Vol(V)*Vol(polar V) <= Vol(B2)^2 for "
        "origin-symmetric convex bodies")
def check_santalo(s):
    # exact planar case: cube times cross-polytope
    yield "exact-2d", [math.pi**2 - 8.0], math.pi**2 - 8.0
    system = trig_system(1)
    for p in (1.5, 2.0, 4.0):
        body = induced_ball(system, p)
        polar = PolarBody(body)
        for k in range(3):
            v = mc_volume_ratio(body, euclidean_ball(3), samples=3000,
                                seed=s + k, check_blowup=False)
            vp = mc_volume_ratio(polar, euclidean_ball(3), samples=3000,
                                 seed=s + 1000 + k, check_blowup=False)
            product = v.value * vp.value
            slack = 2.0 * (v.half_width * vp.value + vp.half_width * v.value) + 1e-6
            yield f"p={p},rep={k}", [1.0 + slack - product], {"product": product, "slack": slack}


@_check("urysohn-volume", "Vol(V)/Vol(B2) >= E[gauge]^(-n) (convexity of t -> t^(-n))")
def check_urysohn(s):
    for n in (3, 5, 9):
        system = trig_system((n - 1) // 2)
        for p in (1.0, 2.0, 4.0, 8.0):
            body = induced_ball(system, p)
            vol = mc_volume_ratio(body, euclidean_ball(n), samples=30_000,
                                  seed=s, check_blowup=False)
            exp = expectation_norm(body, samples=30_000, seed=s)
            # same sample stream on both sides: the bound is Jensen on the
            # empirical measure, so the margin is nonnegative up to roundoff
            lower = exp.value ** float(-n)
            slack = vol.half_width + n * lower / max(exp.value, 1e-12) * exp.half_width
            yield (f"n={n},p={p}", [vol.value + slack + 1e-9 - lower],
                   {"volume_ratio": vol.value, "jensen_lower": lower})


@_check("net-chain", "greedy packings satisfy m(2*delta) <= n(delta) with certified coverage")
def check_net_chain(s):
    ref = euclidean_ball(2)
    for body, tag in ((euclidean_ball(2), "ball"), (LpBall(2, np.inf), "cube")):
        # one traversal per cloud; the coarse net at delta is the fine one at 2 * delta
        nets = [greedy_nets(body, ref, (0.25, 0.5, 1.0, 2.0), seed=s + k) for k in range(5)]
        for i, delta in enumerate((0.25, 0.5, 1.0)):
            for k in range(5):
                fine, coarse = nets[k][i], nets[k][i + 1]
                yield (f"{tag},delta={delta},rep={k}",
                       [float(fine.net_size - coarse.net_size), 1.0 if fine.certified else -1.0],
                       {"m_2delta": coarse.net_size, "n_delta": fine.net_size,
                        "coverage": fine.coverage})


@_check("brunn-sections", "the central slice of a symmetric convex body has maximal volume "
        "among parallel slices")
def check_brunn_sections(s):
    cases = [
        ("disk", euclidean_ball(2), np.array([[1.0, 0.0]]),
         [np.array([0.0, 0.5]), np.array([0.0, 0.9])]),
        ("cube", LpBall(2, np.inf), np.array([[1.0, 0.0]]),
         [np.array([0.0, 0.4]), np.array([0.0, 0.8])]),
        ("trig3", induced_ball(trig_system(1), 4.0), np.array([[1.0, 0.0, 0.0]]),
         [np.array([0.0, 0.3, 0.0]), np.array([0.0, 0.0, 0.4])]),
    ]
    for tag, body, frame_rows, offsets in cases:
        central, worst = stochastic._brunn_margin(body, orthonormalize(frame_rows), offsets)
        yield tag, [worst], {"central": central, "worst_margin": worst}


@_check("projection-ellipsoid", "Vol_s(P(L) A B2)/Vol_s(B2^s) <= 3^n rho^(s-n) det A "
        "for every subspace L")
def check_projection_ellipsoid(s):
    for n in (3, 4, 5):
        for t in range(2):
            rng = as_generator([s, n, t])
            a = np.diag(np.exp(rng.uniform(-1.0, 1.0, n)))
            rho = min_singular_value(a)
            det = float(np.linalg.det(a))
            sdim = math.ceil(n / 2)
            bound = 3.0**n * rho ** (sdim - n) * det
            # projection of an ellipsoid: exact volume from singular values
            ratios = [float(np.prod(np.linalg.svd(random_subspace(n, sdim, rng).frame @ a,
                                                  compute_uv=False))) for _ in range(3)]
            yield f"n={n},trial={t}", [bound / r - 1.0 for r in ratios], {"bound": bound}


@_check("projection-l1-ball", "projections of the induced 1-ball have volume at most C^n times "
        "the unit ball's (bounded n-th roots)")
def check_projection_l1(s):
    for n in (3, 5, 7, 9):
        system = trig_system((n - 1) // 2)
        sub = random_subspace(n, math.ceil(n / 2), s + n)
        est = stochastic.projection_volume_ratio(induced_ball(system, 1.0), sub,
                                                 samples=400, seed=s + n)
        root = (est.value + est.half_width) ** (1.0 / n)
        yield f"n={n}", [8.0 - root], {"ratio_nth_root": root}


@_check("projection-dual-expectation", "n-th roots of projection volumes of the induced p-ball "
        "are dominated by (5/2) times the dual-exponent expectation")
def check_projection_dual(s):
    for n in (3, 5):
        system = trig_system((n - 1) // 2)
        for p in (1.5, 2.0):
            e_dual = expectation_norm(induced_ball(system, bodies._conjugate(p)),
                                      samples=30_000, seed=s)
            sub = random_subspace(n, math.ceil(n / 2), s + n)
            est = stochastic.projection_volume_ratio(induced_ball(system, p), sub,
                                                     samples=400, seed=s + n)
            root = (est.value + est.half_width) ** (1.0 / n)
            rhs = 2.5 * (e_dual.value + e_dual.half_width) + 0.05
            yield f"n={n},p={p}", [rhs - root], {"ratio_nth_root": root, "rhs": rhs}


#: calibration keeps this fraction of the smallest training ratio as a
#: safety margin for out-of-sample validity (the constant is only asserted
#: to exist, not to have a particular value)
CALIBRATION_MARGIN = 0.75
#: the (n, p, q) cells, subspaces per seed and ascent restarts of both
#: radius checks (the l1 check has no q)
RADIUS_GRID = dict(dims=(3, 4, 5, 6), ps=(2.0, 4.0), qs=(1.25, 1.5, 2.0),
                   subspaces=2, restarts=16)


def _radius_check(kind: str, calibration_seeds, validation_seeds):
    """Fit the constant as the smallest training ratio shrunk by
    :data:`CALIBRATION_MARGIN`, freeze it, and take ratio/const - 1 on fresh
    seeds as the margins.  Both seed sets share one ascent call per cell;
    the seed-major ratios split after the training seeds."""
    seeds = list(calibration_seeds) + list(validation_seeds)
    ratios = np.asarray(widths.radius_ratio_samples(kind, seeds, **RADIUS_GRID))
    train, ratios = np.split(ratios.reshape(len(seeds), -1), [len(calibration_seeds)])
    const = CALIBRATION_MARGIN * float(np.min(train))
    yield "constant", ratios.ravel() / const - 1.0, const
    yield "training_trials", [], train.size


@_check("radius-l1", "sampled sections of dimension >= 2n/3 keep induced-1-norm radius above "
        "const * rho * E_p^(-3/2)")
def check_radius_l1(s):
    return _radius_check("l1", range(s, s + 10), range(s + 10, s + 22))


@_check("radius-lq", "sampled proportional sections keep induced-q-norm radius above "
        "const * rho * (E_q' E_p)^(-n/s)")
def check_radius_lq(s):
    return _radius_check("lq", range(s, s + 10), range(s + 10, s + 22))


def _ellipsoid_widths(axes, m: int, restarts: int, seed) -> tuple[float, float, float]:
    """Exact order-m width of diag(axes) B2 in the Euclidean norm, then the
    brute-force Kolmogorov and Gelfand widths."""
    n = len(axes)
    body, target = linear_image(euclidean_ball(n), np.diag(axes)), LpBall(n, 2.0)
    return (widths.ellipsoid_kolmogorov_exact(axes, m),
            widths.brute_force_kolmogorov(body, target, m, restarts=restarts, seed=seed).value,
            widths.brute_force_gelfand(body, target, m, restarts=restarts, seed=seed).value)


@_check("width-duality", "brute-force Gelfand and Kolmogorov widths agree with the exact "
        "ellipsoid oracle and with each other in Euclidean norms")
def check_width_duality(s):
    for n in (3, 4):
        for t in range(2):
            rng = as_generator([s, n, t])
            axes = np.sort(np.exp(rng.uniform(-1.0, 1.0, n)))[::-1]
            for m in (1, 2):
                exact, kol, gel = _ellipsoid_widths(axes, m, 48, s + t)
                yield (f"n={n},t={t},m={m}",
                       [1e-3 - abs(kol - exact), 1e-3 - abs(gel - exact), 1e-2 - abs(kol - gel)],
                       {"exact": exact, "kolmogorov": kol, "gelfand": gel})


@_check("fourier-tail", "keeping m coefficients of a nonincreasing multiplier leaves "
        "worst L2 error exactly |lambda_(m+1)|")
def check_fourier_tail(s):
    # the worst truncation error over the unit ball: the tail block's spectral norm
    lam = np.array([1.0, 0.5, 0.25, 0.2])
    for m in (0, 1, 2, 3):
        tail = np.diag(np.concatenate([np.zeros(m), lam[m:]]))
        numeric = float(np.linalg.norm(tail, 2))
        yield (f"m={m}", [1e-9 - abs(numeric - widths.ellipsoid_kolmogorov_exact(lam, m))],
               {"numeric": numeric})


@_check("weyl-ratio", "tau_N / theta_N^(d/2) stabilizes (consecutive drift < 20%) and "
        "theta_(N+1)/theta_N -> 1 at rate 3/N")
def check_weyl_ratio(s):
    for space in manifolds.all_families():
        ratios = np.array([space.weyl_ratio(N) for N in range(20, 61)])
        drift = float(np.max(np.abs(ratios[1:] / ratios[:-1] - 1.0)))
        worst_theta = max(
            abs(space.eigenvalue(N + 1) / space.eigenvalue(N) - 1.0) - 3.0 / N
            for N in range(10, 80))
        yield space.name, [0.2 - drift, -worst_theta], {
            "step_drift": drift,
            "window_spread": float(ratios.max() / ratios.min() - 1.0),
        }


@_check("sobolev-slope", "lower-bound curve and exact ellipsoid widths on the 2-sphere both "
        "decay like n^(-gamma/d)")
def check_sobolev_slope(s):
    space = manifolds.sphere(2)
    levels = range(4, 13)
    for gamma in (1.0, 2.0):
        target = -gamma / space.d
        s_bound, s_exact = widths.sobolev_width_order(space, gamma, levels)
        yield (f"gamma={gamma}", [0.05 - abs(s_bound - target), 0.05 - abs(s_exact - target),
                                  0.05 - abs(s_bound - s_exact)],
               {"bound": s_bound, "exact": s_exact, "target": target})


def verify_all(seed: int = 0, names=None) -> list[VerificationReport]:
    """Run the named checks one after another, in the order of ``names``,
    which must be a nonempty list of distinct known check names (None runs
    every check)."""
    if names is None:
        names = list(CHECKS)
    if not names:
        raise ConfigError("no checks named")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate check names: {', '.join(names)}")
    return [CHECKS[name](seed) for name in names]


# --------------------------------------------------------------------------
# experiment configuration and the task runner
# --------------------------------------------------------------------------

def _checked(name: str, value, rule):
    """``value`` if it passes ``rule = (predicate, description)``, else ConfigError."""
    if not rule[0](value):
        raise ConfigError(f"field {name!r}: expected {rule[1]}, got {value!r}")
    return value


def _known_fields(what: str, spec: dict, allowed) -> None:
    """ConfigError for a key of ``spec`` outside ``allowed``."""
    extra = set(spec) - set(allowed)
    if extra:
        raise ConfigError(f"{what}: unknown fields {sorted(extra)}; allowed: {sorted(allowed)}")


def _real(v, low: float = -math.inf, inf: bool = False) -> bool:
    """A number (not a bool) >= low, finite unless ``inf``, which admits "inf"."""
    return (inf and v == "inf") or (isinstance(v, (int, float)) and not isinstance(v, bool)
                                    and v >= low and (inf or math.isfinite(v)))


def _reals(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_real, v))


def _ints(v, low: int, high: float = math.inf) -> bool:
    return isinstance(v, list) and all(type(x) is int and low <= x <= high for x in v)


_EXPONENT = (lambda v: _real(v, 1, inf=True), 'a number >= 1 or "inf"')
_COUNT = (lambda v: _ints([v], 1), "an integer >= 1")
_FIELD_RULES = {
    **dict.fromkeys(("p", "q"), _EXPONENT),
    **dict.fromkeys(("samples", "subspaces", "subspace_dim", "restarts", "d"), _COUNT),
    "gamma": (lambda v: _real(v) and v > 0, "a finite number > 0"),
    "diagonal": (_reals, "a nonempty list of finite numbers"),
    "semiaxes": (lambda v: _reals(v) and min(v) > 0, "a nonempty list of finite numbers > 0"),
    "orders": (lambda v: _ints(v, 0), "a list of integers >= 0"),
    "levels": (lambda v: _ints(v, 1, 64) and len(v) == 2 and v[0] < v[1],
               "[lo, hi] with integers 1 <= lo < hi <= 64"),
    "family": (lambda v: isinstance(v, str) and v in manifolds.FAMILIES,
               f"one of {', '.join(manifolds.FAMILIES)}"),
    "checks": (lambda v: v == "all" or isinstance(v, list) and all(
        isinstance(c, str) for c in v), '"all" or a list of check names'),
}


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    seed: int
    params: dict

    @staticmethod
    def from_dict(raw: dict, seed_override=None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        data = dict(raw)
        task, names = data.pop("task", None), tuple(TASKS)
        if task not in names:
            raise ConfigError(f"field 'task': expected one of {names}, got {task!r}")
        seed = data.pop("seed", None)
        if seed_override is not None:
            seed = seed_override
        if seed is None:
            raise ConfigError("field 'seed': a seed is mandatory for reproducibility")
        _checked("seed", seed, (lambda v: _ints([v], 0), "an integer >= 0"))
        fields = list(inspect.signature(TASKS[task]).parameters.values())[1:]  # after seed
        _known_fields(f"task {task!r}", data, [f.name for f in fields])
        missing = {f.name for f in fields if f.default is f.empty} - set(data)
        if missing:
            raise ConfigError(f"task {task!r}: missing fields {sorted(missing)}")
        for key in sorted(data):  # null is no field's value, nor a stand-in for its default
            _checked(key, data[key], _FIELD_RULES.get(key, (lambda v: v is not None, "a value")))
        if task == "expect" and "samples" in data:
            low = stochastic.EXPECT_MIN_SAMPLES
            _checked("samples", data["samples"], (lambda v: v >= low, f"an integer >= {low}"))
        return ExperimentConfig(task=task, seed=seed, params=data)


# kind -> (system factory, size field, default, smallest, largest)
_SYSTEMS = {"trig": (trig_system, "max_degree", 1, 0, 12),
            "trig_prefix": (trig_prefix_system, "n", 3, 1, 25),
            "sphere": (sphere_harmonics_system, "max_degree", 2, 0, 12)}
_BODY_FIELDS = {"lp": ("dim",), "induced": ("system", "p"), "linear_image": ("base", "matrix")}


def _build_system(spec) -> systems.OrthonormalSystem:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _SYSTEMS:
        raise ConfigError(f"field 'system': expected {{kind: trig|trig_prefix|sphere, ...}}, "
                          f"got {spec!r}")
    build, key, default, low, high = _SYSTEMS[kind]
    _known_fields(f"system kind {kind!r}", spec, ("kind", key))
    return build(_checked(f"system.{key}", spec.get(key, default),
                          (lambda v: _ints([v], low, high), f"an integer in {low}..{high}")))


def _build_body(spec) -> bodies.Body:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _BODY_FIELDS:
        raise ConfigError(f"field 'body': expected a descriptor with a kind in "
                          f"{sorted(_BODY_FIELDS)}, got {spec!r}")
    missing = [key for key in _BODY_FIELDS[kind] if key not in spec]
    if missing:
        raise ConfigError(f"body kind {kind!r}: missing fields {missing}")
    lp_exponent = ("p",) if kind == "lp" else ()  # the one optional field, default 2
    _known_fields(f"body kind {kind!r}", spec, ("kind", *_BODY_FIELDS[kind], *lp_exponent))
    if kind != "linear_image":
        p = float(_checked("body.p", spec.get("p", 2), _EXPONENT))
        if kind == "induced":
            return induced_ball(_build_system(spec["system"]), p)
        return LpBall(_checked("body.dim", spec["dim"], _COUNT), p)
    base, mat = _build_body(spec["base"]), spec["matrix"]
    (key, value), = mat.items() if isinstance(mat, dict) and len(mat) == 1 else [(None, None)]
    if key == "diagonal" and _reals(value):
        a = np.diag(value)
    elif key == "dense" and isinstance(value, list) and value and all(
            _reals(row) and len(row) == len(value) for row in value):
        a = np.array(value, dtype=float)
    else:
        raise ConfigError(f"field 'body.matrix': expected exactly one of {{diagonal: [...]}} "
                          f"and a square {{dense: [[...], ...]}} of finite numbers, got {mat!r}")
    try:
        return linear_image(base, a)
    except (DimensionMismatch, SingularMatrix) as exc:
        raise ConfigError(f"field 'body.matrix': {exc}") from None


_TRIG3 = {"kind": "trig", "max_degree": 1}  # the trigonometric system of size 3


def _task_expect(seed, system=_TRIG3, p=2.0, samples=200_000):
    p = float(p)
    system = _build_system(system)
    est = expectation_norm(induced_ball(system, p), samples=samples, seed=seed)
    bound = expected_norm_bound(p) if 2 <= p < math.inf else None
    row = {"system": system.name, "n": system.n, "p": p, "value": est.value,
           "half_width": est.half_width, "bound": "" if bound is None else bound}
    ok = bound is None or est.value <= bound + est.half_width + 1e-6
    return [row], ok


def _task_volume(seed, body, reference=None, samples=500_000):
    """``reference`` defaults to the Euclidean ball of the body's dimension."""
    try:
        body = _build_body(body)
        reference = _build_body({"kind": "lp", "dim": body.dim} if reference is None
                                else reference)
    except RecursionError:  # a descriptor deeper than the interpreter's stack
        raise ConfigError("field 'body': nested too deeply") from None
    est = mc_volume_ratio(body, reference, samples=samples, seed=seed)
    row = {"body": body.label, "reference": reference.label,
           "value": est.value, "half_width": est.half_width, "samples": est.samples}
    return [row], True


def _task_radius(seed, system=_TRIG3, p=2.0, q=1.0, diagonal=None, subspace_dim=None,
                 subspaces=5, restarts=24):
    """``diagonal`` defaults to all ones and ``subspace_dim`` to ceil(2n/3), n the system size."""
    system = _build_system(system)
    n = system.n
    diag = [1.0] * n if diagonal is None else diagonal
    if len(diag) != n:
        raise ConfigError("field 'diagonal': length must match the system size")
    sdim = math.ceil(2 * n / 3) if subspace_dim is None else subspace_dim
    body = linear_image(induced_ball(system, float(p)), np.diag(diag))
    gauge = induced_ball(system, float(q))
    rows = []
    for j in range(subspaces):
        sub = random_subspace(n, sdim, [seed, j])
        rad = section_radius(body, gauge, sub, restarts=restarts, seed=[seed, j, 1])
        rows.append({"subspace": j, "dim": sdim, "radius": rad})
    return rows, True


def _task_widths(seed, semiaxes, orders=None, restarts=128):
    """``orders`` defaults to 0, 1, ..., n, n the number of semiaxes."""
    axes = np.sort(np.asarray(semiaxes, dtype=float))[::-1]
    rows = []
    for m in range(len(axes) + 1) if orders is None else orders:
        exact, kol, gel = _ellipsoid_widths(axes, m, restarts, seed)
        rows.append({"m": m, "exact": exact, "kolmogorov": kol, "gelfand": gel,
                     "agree": abs(kol - exact) <= 1e-3 and abs(gel - exact) <= 1e-3})
    return rows, all(row["agree"] for row in rows)


def _task_verify(seed, checks="all") -> list[VerificationReport]:
    return verify_all(seed, names=None if checks == "all" else checks)


def _task_scaling(seed, family="sphere", d=2, gamma=2.0, levels=(4, 12)):
    gamma, space = float(gamma), manifolds.FAMILIES[family](d)
    s_bound, s_exact = widths.sobolev_width_order(space, gamma, range(levels[0], levels[1] + 1))
    target = -gamma / space.d
    rows = [{"space": space.name, "gamma": gamma, "slope_bound": s_bound,
             "slope_exact": s_exact, "target": target}]
    ok = abs(s_bound - target) <= 0.05 and abs(s_exact - target) <= 0.05
    return rows, ok


#: task name -> runner(seed, **fields), in command line order; verify returns its reports,
#: the others (rows, ok).  A parameter without a default is a required field
TASKS = {"expect": _task_expect, "volume": _task_volume, "radius": _task_radius,
         "widths": _task_widths, "verify": _task_verify, "scaling": _task_scaling}


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows({k: (repr(v) if isinstance(v, float) else v)
                              for k, v in row.items()} for row in rows)


def run(config: ExperimentConfig, out_dir=None) -> tuple[int, dict]:
    """Execute a configured task; returns (exit_code, outputs).

    Writes <task>.csv and <task>_summary.json under ``out_dir`` when given;
    the JSON holds every non-finite float as null.  Exit code 0 means every
    checked property passed.
    """
    if out_dir is not None:  # before the task, so a bad directory costs no run
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WidthLabError(f"output directory {out_dir}: {exc.strerror}") from None
    if config.task == "verify":
        reports = _task_verify(config.seed, **config.params)
        rows = [{"check": r.name, "trials": r.trials, "violations": r.violations,
                 "worst_margin": r.worst_margin, "passed": r.passed}
                for r in reports]
        ok = all(r.passed for r in reports)
        summary = {"task": "verify", "seed": config.seed, "all_pass": ok,
                   "reports": [asdict(r) for r in reports]}
    else:
        try:  # a value outside the float range is an error, not a null in the output
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                rows, ok = TASKS[config.task](config.seed, **config.params)
        except (ArithmeticError, FloatRange) as exc:
            raise FloatRange(f"task {config.task!r}: {exc}") from None
        summary = {"task": config.task, "seed": config.seed, "all_pass": ok,
                   "rows": rows}
    outputs = {"rows": rows, "summary": summary}
    if out_dir is not None:
        out = Path(out_dir)
        _write_csv(out / f"{config.task}.csv", rows)
        with open(out / f"{config.task}_summary.json", "w") as fh:
            json.dump(_json_ready(summary), fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    return (0 if ok else 1), outputs
