"""The three benchmark workloads and their output checks.

Each workload has ``setup(seed)``, which builds every input from the seed,
and ``run(state, workdir)``, the timed call, which returns one
``(operation, ok, note, seconds)`` entry per operation and a dict of extra
results, among them ``gauge_rows``: the Monte-Carlo rows of the run, samples
x bodies gauged (1 for an expectation, 2 for a volume ratio).  An operation
is one check, task config or library call; it fails when it raises, returns
FAIL or fails its output check.  Library functions are called through their
modules so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

import widthlab.cli
from widthlab import bodies, harness, linalg, stochastic, systems, widths

# A correct Monte-Carlo estimate falls outside 3 half widths of its 95%
# interval (5.9 sigma) with probability about 4e-9, so a failure is a defect,
# not chance; the 95% interval itself would fail one run in twenty.
CI_FACTOR = 3.0
# p = 2 gauges are Euclidean norms by exact quadrature
EXACT_TOL = 1e-12
# verify --all makes its estimator calls inside the harness, so its rows are
# not visible here: 1,390,000 expectation samples + 2 x 817,200 volume-ratio
# samples at every seed, as the traced run's stochastic.*.samples show
VERIFY_GAUGE_ROWS = 3_024_400
# L_p norms on a probability space are nondecreasing in p pointwise; on a
# shared sample stream the means keep that order up to rounding
ORDER_TOL = 1e-12


def _op(ops, name, fn):
    """Run one operation; record it as failed if it raises or returns False."""
    t0 = time.monotonic()
    try:
        ok, note = fn()
    except Exception as exc:  # any error in the program is a failed operation
        ok, note = False, f"{type(exc).__name__}: {exc}"
    ops.append((name, bool(ok), note, time.monotonic() - t0))


# --------------------------------------------------------------------------
# verify-all: the 15-check suite exactly as a CLI user runs it
# --------------------------------------------------------------------------


def verify_setup(seed):
    return {"seed": seed}


def verify_run(state, workdir: Path):
    code = widthlab.cli.main(["verify", "--all", "--seed", str(state["seed"]),
                              "--out", str(workdir)])
    raw = (workdir / "verify_summary.json").read_bytes()
    summary = json.loads(raw)
    ops = [(r["name"], r["passed"], f"worst_margin={r['worst_margin']!r}", None)
           for r in summary["reports"]]
    ops.append(("verify-exit", code == 0 and summary["all_pass"] is True
                and len(summary["reports"]) == len(harness.CHECKS),
                f"exit={code} all_pass={summary['all_pass']}", None))
    return ops, {"summary_sha256": hashlib.sha256(raw).hexdigest(),
                 "gauge_rows": VERIFY_GAUGE_ROWS}


# --------------------------------------------------------------------------
# mc-sweep: large-batch gauge throughput through the harness tasks
# --------------------------------------------------------------------------

MC_SAMPLES = 65536  # one full estimator chunk per task config
MC_PS = (1.0, 1.5, 2.0, 3.0, 4.0, 8.0)
MC_EXPECT_SYSTEMS = ({"kind": "trig", "max_degree": 1}, {"kind": "trig", "max_degree": 2},
                     {"kind": "trig", "max_degree": 4}, {"kind": "sphere", "max_degree": 2},
                     {"kind": "sphere", "max_degree": 3})
MC_VOLUME_SYSTEMS = MC_EXPECT_SYSTEMS[:4]
LINEAR_DIAGONAL = (2.0, 1.5, 0.5)


def mc_setup(seed):
    rng = np.random.default_rng(seed)
    cfgs = []  # (tag, group, p, target, config)
    # expect at p = inf, called directly: the task would report FAIL there,
    # because expected_norm_bound(inf) is NaN
    direct = []  # (tag, group, body, seed)
    for sysd in MC_EXPECT_SYSTEMS:
        s = int(rng.integers(2**31))
        group = f"expect:{sysd['kind']}-{sysd['max_degree']}"
        for p in MC_PS:
            cfgs.append((f"{group}:p={p}", group, p, None, {
                "task": "expect", "seed": s, "system": sysd, "p": p,
                "samples": MC_SAMPLES}))
        system = harness._build_system(sysd)  # as the task builds it
        direct.append((f"{group}:p=inf", group, bodies.induced_ball(system, math.inf), s))
    for sysd in MC_VOLUME_SYSTEMS:
        s = int(rng.integers(2**31))
        group = f"volume:{sysd['kind']}-{sysd['max_degree']}"
        for p in MC_PS + ("inf",):
            cfgs.append((f"{group}:p={p}", group, math.inf if p == "inf" else p, None, {
                "task": "volume", "seed": s, "samples": MC_SAMPLES,
                "body": {"kind": "induced", "system": sysd, "p": p}}))
    cfgs.append(("volume:cube-2", None, None, 4.0 / math.pi, {
        "task": "volume", "seed": int(rng.integers(2**31)), "samples": MC_SAMPLES,
        "body": {"kind": "lp", "dim": 2, "p": "inf"}}))
    cfgs.append(("volume:linear-image-3", None, None, float(np.prod(LINEAR_DIAGONAL)), {
        "task": "volume", "seed": int(rng.integers(2**31)), "samples": MC_SAMPLES,
        "body": {"kind": "linear_image", "base": {"kind": "lp", "dim": 3, "p": 2},
                 "matrix": {"diagonal": list(LINEAR_DIAGONAL)}}}))
    tasks = [(tag, group, p, target, harness.ExperimentConfig.from_dict(raw))
             for tag, group, p, target, raw in cfgs]
    return {"tasks": tasks, "direct": direct}


def mc_run(state, workdir: Path):
    ops = []
    values = {}
    rows = 0
    for i, (tag, group, p, target, cfg) in enumerate(state["tasks"]):
        def one():
            nonlocal rows
            code, out = harness.run(cfg, out_dir=workdir / f"task{i:02d}")
            rows += cfg.params["samples"] * (1 if cfg.task == "expect" else 2)
            row = out["rows"][0]
            value, half = row["value"], row["half_width"]
            values[tag] = value
            if code != 0:
                return False, f"task exit {code}"
            if not math.isfinite(value) or value <= 0:
                return False, f"value {value!r}"
            if p == 2.0 and abs(value - 1.0) > EXACT_TOL:
                return False, f"p=2 value {value!r} is not 1"
            if cfg.task == "expect" and p >= 2.0:
                bound = stochastic.expected_norm_bound(p)
                if not value <= bound + half:
                    return False, f"{value!r} above bound {bound!r} + {half!r}"
            if target is not None and abs(value - target) > CI_FACTOR * half:
                return False, f"{value!r} vs exact {target!r}, half width {half!r}"
            return True, f"value={value!r}"
        _op(ops, tag, one)

    for tag, group, body, seed in state["direct"]:
        def inf():
            nonlocal rows
            est = stochastic.expectation_norm(body, samples=MC_SAMPLES, seed=seed)
            rows += est.samples
            values[tag] = est.value
            return math.isfinite(est.value) and est.value > 0, f"value={est.value!r}"
        _op(ops, tag, inf)

    # same seed within a group: the order in p must hold on the samples
    groups = {}
    points = [(tag, group, p, cfg.task) for tag, group, p, _, cfg in state["tasks"]]
    points += [(tag, group, math.inf, "expect") for tag, group, _, _ in state["direct"]]
    for tag, group, p, task in points:
        if group is not None and tag in values:
            groups.setdefault((group, task), []).append((p, values[tag]))
    for (group, task), pts in sorted(groups.items()):
        vals = [v for _, v in sorted(pts)]
        if task == "expect":
            ok = all(a <= b * (1 + ORDER_TOL) for a, b in zip(vals, vals[1:]))
        else:  # larger p, smaller body
            ok = all(b <= a * (1 + ORDER_TOL) for a, b in zip(vals, vals[1:]))
        ops.append((f"{group}:order-in-p", ok, repr(vals), None))
    return ops, {"gauge_rows": rows}


# --------------------------------------------------------------------------
# dual-search: polars, projections, nets and a non-Euclidean Gelfand search
# --------------------------------------------------------------------------

# sized so that a repetition takes about 7 s and a run holds two or three,
# whose median damps the host's second-to-second speed changes
POLAR_SAMPLES = 400
PROJECTION_SAMPLES = 120
NET_CASES = ((3, 4.0, 2.0, 0.5), (4, 4.0, 1.0, 0.8), (5, 2.0, 1.0, 1.2))  # n, p, ref q, delta
# The frame search's Nelder-Mead path length varies about 1.5x with its seed,
# which would swamp the seed-to-seed spread of the run; the Gelfand instance
# is therefore fixed, and the seed varies the other three parts.  It is the
# planar one (codimension-1 sections of R^2): at n = 3, m = 2 a single search
# takes about 10 s, which leaves room for one repetition per run only.
GELFAND_DIM = 2
GELFAND_SEED = 0


def dual_setup(seed):
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(2**31, size=10)]  # one per random draw below
    trig5 = systems.trig_system(2)
    body = bodies.induced_ball(trig5, 4.0)
    projections = []
    for k, n in enumerate((5, 9)):
        system = systems.trig_system((n - 1) // 2)
        sub = linalg.random_subspace(n, math.ceil(n / 2), seeds[3 + k])
        projections.append((n, bodies.induced_ball(system, 1.0), sub))
    nets = []
    for n, p, q, delta in NET_CASES:
        system = systems.trig_prefix_system(n)
        nets.append((n, bodies.induced_ball(system, p), bodies.induced_ball(system, q), delta))
    planar = systems.trig_prefix_system(GELFAND_DIM)
    return {
        "seeds": seeds,
        "polar": (body, bodies.PolarBody(body, seed=seeds[0])),
        "projections": projections,
        "nets": nets,
        "gelfand": (bodies.induced_ball(planar, 4.0), bodies.induced_ball(planar, 1.0)),
    }


def dual_run(state, workdir: Path):
    ops = []
    seeds = state["seeds"]
    rows = 0

    def santalo():
        nonlocal rows
        body, polar = state["polar"]
        ref = bodies.euclidean_ball(body.dim)
        v = stochastic.mc_volume_ratio(body, ref, samples=POLAR_SAMPLES, seed=seeds[1],
                                       check_blowup=False)
        vp = stochastic.mc_volume_ratio(polar, ref, samples=POLAR_SAMPLES, seed=seeds[2],
                                        check_blowup=False)
        rows += 2 * (v.samples + vp.samples)
        product = v.value * vp.value
        # the slack of harness.check_santalo
        slack = 2.0 * (v.half_width * vp.value + vp.half_width * v.value) + 1e-6
        return product <= 1.0 + slack, f"product={product!r} slack={slack!r}"
    _op(ops, "santalo:trig-5,p=4", santalo)

    for k, (n, body, sub) in enumerate(state["projections"]):
        def projection():
            nonlocal rows
            est = stochastic.projection_volume_ratio(body, sub, samples=PROJECTION_SAMPLES,
                                                     seed=seeds[5 + k])
            rows += 2 * est.samples  # a volume ratio of the projection to a ball
            root = est.value ** (1.0 / n) if est.value > 0 else float("nan")
            # the bound of harness.check_projection_l1
            return math.isfinite(root) and 0 < root <= 8.0, f"nth_root={root!r}"
        _op(ops, f"projection:trig-{n},p=1", projection)

    for k, (n, body, ref, delta) in enumerate(state["nets"]):
        def net():
            rep = stochastic.greedy_net(body, ref, delta, seed=seeds[7 + k])
            return rep.certified, f"points={rep.net_size} coverage={rep.coverage!r}"
        _op(ops, f"net:n={n},delta={delta}", net)

    def gelfand():
        body, target = state["gelfand"]
        d0 = widths.brute_force_gelfand(body, target, 0, seed=GELFAND_SEED).value
        d1 = widths.brute_force_gelfand(body, target, 1, restarts=1, seed=GELFAND_SEED).value
        ok = all(map(math.isfinite, (d0, d1))) and 0 < d1 <= d0 * (1 + 1e-9)
        return ok, f"d0={d0!r} d1={d1!r}"
    _op(ops, "gelfand:trig-prefix-2,p=4,q=1,m=1", gelfand)
    return ops, {"gauge_rows": rows}


WORKLOADS = {
    "verify-all": (verify_setup, verify_run),
    "mc-sweep": (mc_setup, mc_run),
    "dual-search": (dual_setup, dual_run),
}
