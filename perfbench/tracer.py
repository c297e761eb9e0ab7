"""Span tracer installed around widthlab's public functions from outside.

``install`` wraps the public functions of each traced module, the gauge
methods of every body class, ``OrthonormalSystem.lp_norm_many``, the named
verification checks, ``widths._cached_expectation`` and the scipy
``minimize`` binding of each module that uses it.  Every wrapped binding
site is replaced (modules bind names with ``from ... import``), so a call is
traced whichever module makes it.

A span is one tuple ``(code, thread id, start, end, a, b, c)`` appended to
a list; ``a``, ``b`` and ``c`` carry rows, sample counts or optimizer
results where the function has them.  Every 65536 spans the list is packed
into a float array, and the packing itself is recorded as a span so that it
is subtracted from its parent's self time.  ``summarize`` rebuilds the
nesting per thread after the run and turns the spans into per-layer
metrics.  Nothing in the traced package is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np

MODULES = ("linalg", "systems", "bodies", "_optim", "stochastic", "widths",
           "harness", "cli")
# called inside every induced gauge evaluation; its cost is part of the gauge
# methods' self time, and wrapping it would add a span per kernel call
SKIP = {"systems.abs_power"}
FLUSH_EVERY = 1 << 16
GAUGE_TYPES = ("InducedBall", "LpBall", "LinearImageBody", "SectionBody",
               "ProjectionBody", "PolarBody")
GRAD_TYPES = GAUGE_TYPES[:4]
CHECK_NAMES = ("volume-identity", "expectation-bound", "santalo", "urysohn-volume",
               "net-chain", "brunn-sections", "projection-ellipsoid", "projection-l1-ball",
               "projection-dual-expectation", "radius-l1", "radius-lq", "width-duality",
               "fourier-tail", "weyl-ratio", "sobolev-slope")


def _rows(points) -> int:
    return points.shape[0] if getattr(points, "ndim", 1) == 2 else 1


class Tracer:
    """Collects spans; ``codes`` maps span names to their integer codes."""

    def __init__(self):
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.chunks: list[np.ndarray] = []
        self._lock = threading.Lock()
        self.flush_code = self.code("trace.flush")

    def code(self, name: str) -> int:
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    def _flush(self) -> None:
        t0 = time.perf_counter()
        with self._lock:
            count = len(self.spans)
            batch = self.spans[:count]
            del self.spans[:count]
        self.chunks.append(np.array(batch, dtype=np.float64))
        self.spans.append((self.flush_code, threading.get_ident(), t0,
                           time.perf_counter(), 0, 0, 0))

    def wrap(self, fn, name: str, extra=None):
        """Span-recording wrapper; ``extra(args, kwargs, result)`` gives (a, b, c)."""
        code = self.code(name)
        spans = self.spans
        append = spans.append
        perf = time.perf_counter
        ident = threading.get_ident
        flush = self._flush

        if extra is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    append((code, ident(), t0, perf(), 0, 0, 0))
                    if len(spans) >= FLUSH_EVERY:
                        flush()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = perf()
                    a, b, c = extra(args, kwargs, result)
                    append((code, ident(), t0, t1, a, b, c))
                    if len(spans) >= FLUSH_EVERY:
                        flush()
        return wrapper

    def wrap_rows(self, fn, name: str):
        """Wrapper for ``method(self, points, ...)``: records the row count."""
        code = self.code(name)
        spans = self.spans
        append = spans.append
        perf = time.perf_counter
        ident = threading.get_ident
        flush = self._flush

        @functools.wraps(fn)
        def wrapper(obj, points, *args, **kwargs):
            t0 = perf()
            try:
                return fn(obj, points, *args, **kwargs)
            finally:
                append((code, ident(), t0, perf(), _rows(points), 0, 0))
                if len(spans) >= FLUSH_EVERY:
                    flush()
        return wrapper

    def wrap_minimize(self, fn, site: str):
        """Per-binding-site scipy ``minimize``: span named by site and method."""
        perf = time.perf_counter
        ident = threading.get_ident
        spans = self.spans
        codes = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            method = str(kwargs.get("method", "default"))
            if method not in codes:
                codes[method] = self.code(f"{site}.minimize.{method}")
            t0 = perf()
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = perf()
                if res is None:
                    a, b, c = 0, 0, 1
                else:
                    a, b = getattr(res, "nfev", 0), getattr(res, "nit", 0)
                    c = 0 if res.success else 1
                spans.append((codes[method], ident(), t0, t1, a, b, c))
                if len(spans) >= FLUSH_EVERY:
                    self._flush()
        return wrapper

    def table(self) -> np.ndarray:
        """All spans so far as an (n, 7) float array, in recording order."""
        with self._lock:
            batch = list(self.spans)
        parts = self.chunks + ([np.array(batch, dtype=np.float64)] if batch else [])
        if not parts:
            return np.zeros((0, 7))
        return np.concatenate(parts)


def _support_rows(fn):
    """Rows per ascent step of ``support_values``: targets x restarts."""
    sig = inspect.signature(fn)

    def extra(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        restarts = max(int(bound.arguments["restarts"]), 1)
        return (_rows(bound.arguments["targets"]) * restarts, 0, 0)
    return extra


def _samples_of(args, kwargs, result):
    return (getattr(result, "samples", 0), 0, 0)


def _net_points(args, kwargs, result):
    return (0 if result is None else result.net_size, 0, 0)


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install() -> Tracer:
    """Wrap widthlab in place and return the tracer."""
    import widthlab.cli  # noqa: F401  (loads every traced module)

    mods = {name: sys.modules[f"widthlab.{name}"] for name in MODULES
            if f"widthlab.{name}" in sys.modules}
    every = [m for n, m in sys.modules.items()
             if n == "widthlab" or n.startswith("widthlab.")]
    t = Tracer()
    harness = mods.get("harness")
    check_names = {fn: name for name, fn in getattr(harness, "CHECKS", {}).items()}

    # scipy minimize, one wrapper per binding site
    for site in ("_optim", "bodies", "widths"):
        mod = mods.get(site)
        if mod is not None and hasattr(mod, "minimize"):
            mod.minimize = t.wrap_minimize(mod.minimize, site)

    # public functions, named by their defining module
    extras = {
        "stochastic.expectation_norm": _samples_of,
        "stochastic.mc_volume_ratio": _samples_of,
        "stochastic.projection_volume_ratio": _samples_of,
        "stochastic.greedy_net": _net_points,
    }
    if hasattr(mods["_optim"], "support_values"):
        extras["_optim.support_values"] = _support_rows(mods["_optim"].support_values)
    for short, mod in mods.items():
        for key, fn in list(vars(mod).items()):
            if (key.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or f"{short}.{key}" in SKIP):
                continue
            check = check_names.get(fn)
            name = f"harness.check.{check}" if check else f"{short}.{key}"
            wrapped = t.wrap(fn, name, extras.get(name))
            _rebind(every, fn, wrapped)
            if check:
                harness.CHECKS[check] = wrapped

    widths = mods.get("widths")
    cached = getattr(widths, "_cached_expectation", None)
    if cached is not None:
        widths._cached_expectation = t.wrap(cached, "widths._cached_expectation")

    # gauge oracles of every body class, and the systems' L_p kernel
    body_base = mods["bodies"].Body
    pending = list(body_base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        short = cls.__module__.rsplit(".", 1)[-1]
        for meth in ("gauge_many", "gauge_grad_many"):
            if meth in vars(cls):
                setattr(cls, meth, t.wrap_rows(vars(cls)[meth],
                                               f"{short}.{cls.__name__}.{meth}"))
    system_cls = mods["systems"].OrthonormalSystem
    system_cls.lp_norm_many = t.wrap_rows(system_cls.lp_norm_many,
                                          "systems.lp_norm_many")
    return t


# --------------------------------------------------------------------------
# turning spans into per-layer metrics
# --------------------------------------------------------------------------


def _nesting(table: np.ndarray):
    """Parent index (-1 at top level) and summed child time of every span.

    Spans are appended when they end, so each thread's spans arrive in
    post-order: a span's children are exactly the not-yet-adopted spans of
    its thread that started after it.
    """
    n = len(table)
    parent = np.full(n, -1, dtype=np.int64)
    child_time = np.zeros(n)
    tids = table[:, 1].tolist()
    starts = table[:, 2].tolist()
    durations = (table[:, 3] - table[:, 2]).tolist()
    stacks: dict = {}
    for i in range(n):
        stack = stacks.setdefault(tids[i], [])
        s = starts[i]
        acc = 0.0
        while stack and starts[stack[-1]] >= s:
            j = stack.pop()
            parent[j] = i
            acc += durations[j]
        child_time[i] = acc
        stack.append(i)
    return parent, child_time


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics (see BENCHMARK.json) from the recorded spans."""
    table = tracer.table()
    names = tracer.names
    code = table[:, 0].astype(np.int64)
    dur = table[:, 3] - table[:, 2]
    parent, child_time = _nesting(table)
    self_time = dur - child_time
    pcode = np.where(parent >= 0, code[np.maximum(parent, 0)], -1)

    # outer: no ancestor has the same code, so busy time is not counted twice;
    # in_lq: the span runs inside the radius-lq check
    lq = tracer.codes.get("harness.check.radius-lq", -2)
    outer = np.ones(len(table), dtype=bool)
    in_lq = code == lq
    anc = parent.copy()
    while np.any(anc >= 0):
        live = np.flatnonzero(anc >= 0)
        outer[live] &= code[anc[live]] != code[live]
        in_lq[live] |= code[anc[live]] == lq
        anc[live] = parent[anc[live]]

    def sel(name):
        c = tracer.codes.get(name)
        return np.zeros(len(table), dtype=bool) if c is None else code == c

    out: dict[str, float] = {}

    def put(key, value):
        out[key] = float(value)

    put("systems.lp_norm_many.calls", sel("systems.lp_norm_many").sum())
    put("systems.lp_norm_many.rows", table[sel("systems.lp_norm_many"), 4].sum())
    put("systems.lp_norm_many.self_s", self_time[sel("systems.lp_norm_many")].sum())
    for meth, types in (("gauge_many", GAUGE_TYPES), ("gauge_grad_many", GRAD_TYPES)):
        for typ in types:
            m = sel(f"bodies.{typ}.{meth}")
            put(f"bodies.{typ}.{meth}.calls", m.sum())
            put(f"bodies.{typ}.{meth}.rows", table[m, 4].sum())
            put(f"bodies.{typ}.{meth}.self_s", self_time[m].sum())

    lbfgs = sel("bodies.minimize.L-BFGS-B")
    put("bodies.ProjectionBody.lbfgs.solves", lbfgs.sum())
    put("bodies.ProjectionBody.lbfgs.nit", table[lbfgs, 5].sum())
    put("bodies.ProjectionBody.lbfgs.unconverged", table[lbfgs, 6].sum())

    ra = sel("_optim.ratio_ascent")
    ra_code = tracer.codes.get("_optim.ratio_ascent", -2)
    grads = np.isin(code, [c for c, nm in enumerate(names)
                           if nm.endswith(".gauge_grad_many")])
    direct = grads & (pcode == ra_code)
    put("optim.ratio_ascent.calls", ra.sum())
    put("optim.ratio_ascent.self_s", self_time[ra].sum())
    put("optim.ratio_ascent.gauge_calls", direct.sum())
    put("optim.ratio_ascent.rows_per_call",
        table[direct, 4].sum() / direct.sum() if direct.any() else 0.0)
    polish = sel("_optim.minimize.Nelder-Mead")
    put("optim.ratio_ascent.polish.calls", polish.sum())
    put("optim.ratio_ascent.polish.nfev", table[polish, 4].sum())
    put("optim.ratio_ascent.polish.unconverged", table[polish, 6].sum())
    put("optim.ratio_ascent.polish.busy_s", dur[polish & outer].sum())
    sv = sel("_optim.support_values")
    put("optim.support_values.calls", sv.sum())
    put("optim.support_values.rows", table[sv, 4].sum())
    put("optim.support_values.self_s", self_time[sv].sum())

    for fn in ("expectation_norm", "mc_volume_ratio", "section_radius", "greedy_net",
               "projection_volume_ratio"):
        m = sel(f"stochastic.{fn}")
        put(f"stochastic.{fn}.calls", m.sum())
        put(f"stochastic.{fn}.busy_s", dur[m & outer].sum())
    for fn in ("expectation_norm", "mc_volume_ratio", "projection_volume_ratio"):
        put(f"stochastic.{fn}.samples", table[sel(f"stochastic.{fn}"), 4].sum())
    sr = sel("stochastic.section_radius")
    sr_code = tracer.codes.get("stochastic.section_radius", -2)
    by_ascent = np.unique(parent[ra & (pcode == sr_code)]).size
    put("stochastic.section_radius.closed_form_share",
        1.0 - by_ascent / sr.sum() if sr.any() else 0.0)
    put("stochastic.greedy_net.points", table[sel("stochastic.greedy_net"), 4].sum())

    for fn in ("brute_force_gelfand", "brute_force_kolmogorov",
               "calibrate_radius_constant", "radius_bound_violations"):
        m = sel(f"widths.{fn}")
        put(f"widths.{fn}.calls", m.sum())
        put(f"widths.{fn}.busy_s", dur[m & outer].sum())
    frames = sel("widths.minimize.Nelder-Mead")
    put("widths.frame_search.nfev", table[frames, 4].sum())
    put("widths.frame_search.unconverged", table[frames, 6].sum())
    lookups = sel("widths._cached_expectation")
    misses = sel("stochastic.expectation_norm") & (
        pcode == tracer.codes.get("widths._cached_expectation", -2))
    put("widths.expectation_cache.hits", lookups.sum() - misses.sum())
    put("widths.expectation_cache.misses", misses.sum())

    for fn in ("random_subspace", "min_singular_value", "orthonormalize"):
        m = sel(f"linalg.{fn}")
        put(f"linalg.{fn}.calls", m.sum())
        put(f"linalg.{fn}.busy_s", dur[m & outer].sum())

    for check in CHECK_NAMES:
        put(f"harness.check.{check}.wall_s", dur[sel(f"harness.check.{check}")].sum())
    put("harness.verify_all.busy_s", dur[sel("harness.verify_all") & outer].sum())
    put("cli.main.busy_s", dur[sel("cli.main") & outer].sum())

    # exact counts inside the radius-lq check, for comparison across commits
    put("harness.check.radius-lq.ratio_ascent.calls", (in_lq & ra).sum())
    put("harness.check.radius-lq.InducedBall.gauge_grad_many.calls",
        (in_lq & sel("bodies.InducedBall.gauge_grad_many")).sum())
    put("trace.spans", len(table))
    return out
