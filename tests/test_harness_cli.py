import dataclasses
import inspect
import json
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import harness, manifolds, stochastic, widths
from widthlab.bodies import Body, PolarBody
from widthlab.errors import BadDimensions, ConfigError, WidthLabError
from widthlab.harness import (CHECKS, TASKS, ExperimentConfig, _build_body, _build_system,
                              _report, check_santalo, check_seed, run, verify_all)
from widthlab.systems import OrthonormalSystem

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)
NUMBER = st.integers(-2, 30) | st.floats() | st.sampled_from(["inf", "2", 1.5])
SYSTEM = st.fixed_dictionaries(
    {"kind": st.sampled_from(["trig", "trig_prefix", "sphere"]) | JSON},
    optional={"max_degree": st.integers(-1, 13) | JSON, "n": st.integers(0, 26) | JSON})
ROWS = st.lists(st.lists(NUMBER, max_size=3), max_size=3)
BODY = st.recursive(
    st.fixed_dictionaries({"kind": st.just("lp"), "dim": st.integers(-1, 4) | JSON},
                          optional={"p": NUMBER | JSON}),
    lambda kids: st.fixed_dictionaries({
        "kind": st.just("linear_image"), "base": kids,
        "matrix": st.fixed_dictionaries({}, optional={
            "diagonal": st.lists(NUMBER, max_size=3) | JSON, "dense": ROWS | JSON}) | JSON})
    | st.fixed_dictionaries({"kind": st.just("induced"), "system": SYSTEM | JSON,
                             "p": NUMBER | JSON})
    | st.sampled_from([{"kind": "lp"}, {"kind": "induced"}, {"kind": "linear_image"}])
    | JSON,
    max_leaves=3)
FIELD_VALUES = {"system": SYSTEM | JSON, "body": BODY, "reference": BODY,
                "checks": st.just("all") | st.lists(st.sampled_from(list(CHECKS)), max_size=2)
                | JSON,
                "levels": st.lists(st.integers(-1, 5), max_size=3) | JSON}


def _fields(task) -> dict:
    """Field name -> default (``inspect.Parameter.empty`` if required) of ``task``."""
    params = list(inspect.signature(TASKS[task]).parameters.values())
    assert params[0].name == "seed"
    return {f.name: f.default for f in params[1:]}


CONFIG = st.sampled_from(list(TASKS)).flatmap(lambda task: st.fixed_dictionaries(
    {"task": st.just(task), "seed": st.integers(-3, 2**40) | JSON},
    optional={f: FIELD_VALUES.get(f, NUMBER | st.lists(NUMBER, max_size=3) | JSON)
              for f in sorted(_fields(task))})) | JSON

EXPONENT = st.integers(1, 30) | st.floats(1.0, allow_infinity=False) | st.just("inf")
SMALL_SYSTEM = (st.fixed_dictionaries({"kind": st.just("trig"), "max_degree": st.integers(0, 3)})
                | st.fixed_dictionaries({"kind": st.just("trig_prefix"), "n": st.integers(1, 7)})
                | st.fixed_dictionaries({"kind": st.just("sphere"),
                                         "max_degree": st.integers(0, 2)}))
SMALL_BODY = st.recursive(
    st.fixed_dictionaries({"kind": st.just("lp"), "dim": st.integers(1, 4)},
                          optional={"p": EXPONENT})
    | st.fixed_dictionaries({"kind": st.just("induced"), "system": SMALL_SYSTEM,
                             "p": EXPONENT}),
    lambda kids: st.fixed_dictionaries({
        "kind": st.just("linear_image"), "base": kids,
        "matrix": st.fixed_dictionaries({"diagonal": st.lists(NUMBER, min_size=1, max_size=4)})
        | st.fixed_dictionaries({"dense": ROWS})}),
    max_leaves=2)
SEED = st.integers(-3, 20) | st.integers(0, 2**40)
SAMPLES = st.integers(1, 5000)
#: configs of the cheap tasks, mostly ones that from_dict accepts; the small
#: systems and levels keep each run short
RUNNABLE = (
    st.fixed_dictionaries({"task": st.just("expect"), "seed": SEED}, optional={
        "system": SMALL_SYSTEM, "p": EXPONENT, "samples": SAMPLES})
    | st.fixed_dictionaries({"task": st.just("volume"), "seed": SEED, "body": SMALL_BODY},
                            optional={"reference": SMALL_BODY, "samples": SAMPLES})
    | st.fixed_dictionaries({"task": st.just("scaling"), "seed": SEED}, optional={
        "family": st.sampled_from(list(manifolds.FAMILIES)), "d": st.integers(1, 16),
        "gamma": st.floats(0.0, exclude_min=True, allow_infinity=False),
        "levels": st.lists(st.integers(1, 16), min_size=2, max_size=2,
                           unique=True).map(sorted)})
    | st.fixed_dictionaries({"task": st.just("verify"), "seed": SEED, "checks": st.lists(
        st.sampled_from(["fourier-tail", "weyl-ratio"]), min_size=1, max_size=2, unique=True)}))

REQUIRED = inspect.Parameter.empty
TRIG3 = {"kind": "trig", "max_degree": 1}
#: every task's fields and their defaults, as the per-task field lists and
#: ``params.get`` defaults had them; None marks a default derived from other
#: fields (the Euclidean ball of the body's dimension, all-ones diagonal,
#: ceil(2n/3) and orders 0..n)
SCHEMAS = {
    "expect": {"system": TRIG3, "p": 2.0, "samples": 200_000},
    "volume": {"body": REQUIRED, "reference": None, "samples": 500_000},
    "radius": {"system": TRIG3, "p": 2.0, "q": 1.0, "diagonal": None, "subspace_dim": None,
               "subspaces": 5, "restarts": 24},
    "widths": {"semiaxes": REQUIRED, "orders": None, "restarts": 128},
    "verify": {"checks": "all"},
    "scaling": {"family": "sphere", "d": 2, "gamma": 2.0, "levels": (4, 12)},
}


def _affine(fn, scale=1.0, shift=0.0):
    """``fn`` with its result mapped to scale * result + shift."""
    return lambda *args, **kwargs: scale * fn(*args, **kwargs) + shift


def _shifted_pair(fn, shift):
    """``fn`` with both numbers of the pair it returns raised by ``shift``."""
    return lambda *args, **kwargs: tuple(v + shift for v in fn(*args, **kwargs))


def _scaled_value(fn, factor):
    """``fn`` with the value of the estimate it returns scaled by ``factor``."""
    def scaled(*args, **kwargs):
        est = fn(*args, **kwargs)
        return dataclasses.replace(est, value=factor * est.value)
    return scaled


def _low_central_slice(fn):
    """``_slice_length`` with the central slice 10% low."""
    def low(body, line, offset):
        length = fn(body, line, offset)
        return length if np.any(offset) else 0.9 * length
    return low


class _LowPolar(PolarBody):
    """Polar gauges 5% low, which inflate the polar volume by 1.05^3: the
    check must catch support values that far below the bracket."""

    def gauge_grad_many(self, points):
        g, grad = super().gauge_grad_many(points)
        return 0.95 * g, 0.95 * grad


def _huge_projection(body, subspace, samples, seed):
    return stochastic.EstimateWithCI(9.0 ** body.dim, 0.0, samples)


def _uncertified_nets(*args, **kwargs):
    return [dataclasses.replace(net, certified=False)
            for net in stochastic.greedy_nets(*args, **kwargs)]


def _odd_raised(eigenvalue):
    """``TwoPointSpace.eigenvalue`` with every odd-level eigenvalue 50% high."""
    return lambda space, k: 1.5 ** (k % 2) * eigenvalue(space, k)


#: check name -> a perturbation (applied through ``monkeypatch``) it must catch
CONTROLS = {
    "volume-identity": lambda mp: mp.setattr(
        harness, "mc_volume_ratio", _scaled_value(harness.mc_volume_ratio, 1.1)),
    "expectation-bound": lambda mp: mp.setattr(
        harness, "expectation_norm", _scaled_value(harness.expectation_norm, 1.05)),
    "santalo": lambda mp: mp.setattr(harness, "PolarBody", _LowPolar),
    "urysohn-volume": lambda mp: mp.setattr(
        harness, "mc_volume_ratio", _scaled_value(harness.mc_volume_ratio, 0.9)),
    "net-chain": lambda mp: mp.setattr(harness, "greedy_nets", _uncertified_nets),
    "brunn-sections": lambda mp: mp.setattr(
        stochastic, "_slice_length", _low_central_slice(stochastic._slice_length)),
    "projection-ellipsoid": lambda mp: mp.setattr(
        harness, "min_singular_value", _affine(harness.min_singular_value, scale=100.0)),
    "projection-l1-ball": lambda mp: mp.setattr(
        stochastic, "projection_volume_ratio", _huge_projection),
    "projection-dual-expectation": lambda mp: mp.setattr(
        stochastic, "projection_volume_ratio", _huge_projection),
    # ten times the constant the calibration fits
    "radius-l1": lambda mp: mp.setattr(harness, "CALIBRATION_MARGIN", 7.5),
    # validation sections (the seeds after the first 10) half as wide as the
    # training ones; stubbed, since the real lq grid is the costliest check
    "radius-lq": lambda mp: mp.setattr(
        widths, "radius_ratio_samples",
        lambda kind, seeds, **grid: [1.0 if k < 10 else 0.5 for k in range(len(seeds))]),
    "width-duality": lambda mp: mp.setattr(
        widths, "ellipsoid_kolmogorov_exact",
        _affine(widths.ellipsoid_kolmogorov_exact, shift=2e-3)),
    "fourier-tail": lambda mp: mp.setattr(
        widths, "ellipsoid_kolmogorov_exact",
        _affine(widths.ellipsoid_kolmogorov_exact, scale=1.01)),
    "weyl-ratio": lambda mp: mp.setattr(
        manifolds.TwoPointSpace, "eigenvalue", _odd_raised(manifolds.TwoPointSpace.eigenvalue)),
    "sobolev-slope": lambda mp: mp.setattr(
        widths, "sobolev_width_order", _shifted_pair(widths.sobolev_width_order, 0.1)),
}


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON output")


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "widthlab.cli", *args],
                          capture_output=True, text=True)


def _main(tmp_path, raw, *args):
    """``widthlab <task> --config FILE *args`` in this process, FILE holding ``raw``."""
    from widthlab.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return main([raw["task"], "--config", str(cfg), *args])


class TestConfig:
    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            ExperimentConfig.from_dict({"task": "juggle", "seed": 1})

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="wobble"):
            ExperimentConfig.from_dict({"task": "expect", "seed": 1, "wobble": 2})

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"task": "expect"})

    def test_task_schemas(self):
        assert list(TASKS) == ["expect", "volume", "radius", "widths", "verify", "scaling"]
        assert {task: _fields(task) for task in TASKS} == SCHEMAS

    @pytest.mark.parametrize("raw, message", [
        ({"task": "juggle", "seed": 1}, "field 'task': expected one of ('expect', 'volume', "
         "'radius', 'widths', 'verify', 'scaling'), got 'juggle'"),
        ({"task": ["expect"], "seed": 1}, "field 'task': expected one of ('expect', 'volume', "
         "'radius', 'widths', 'verify', 'scaling'), got ['expect']"),
        ({"task": "expect", "seed": 1, "wobble": 2},
         "task 'expect': unknown fields ['wobble']; allowed: ['p', 'samples', 'system']"),
        ({"task": "radius", "seed": 1, "wobble": 2, "q": 1}, "task 'radius': unknown fields "
         "['wobble']; allowed: ['diagonal', 'p', 'q', 'restarts', 'subspace_dim', 'subspaces', "
         "'system']"),
        ({"task": "volume", "seed": 1}, "task 'volume': missing fields ['body']"),
        ({"task": "widths", "seed": 1, "orders": [1]},
         "task 'widths': missing fields ['semiaxes']"),
    ], ids=["unknown-task", "list-task", "unknown-field", "unknown-field-radius",
            "missing-body", "missing-semiaxes"])
    def test_schema_messages(self, raw, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert str(exc.value) == message

    def test_seed_override(self):
        cfg = ExperimentConfig.from_dict({"task": "expect", "seed": 1},
                                         seed_override=9)
        assert cfg.seed == 9

    @given(CONFIG)
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_config_is_config_error_or_valid(self, raw):
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigError:
            return
        assert cfg.task in TASKS
        for key in ("p", "q", "gamma"):
            if key in cfg.params:
                assert float(cfg.params[key]) > 0

    @given(RUNNABLE)
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_run_returns_a_code_or_a_widthlab_error(self, raw):
        try:
            code, outputs = run(ExperimentConfig.from_dict(raw))
        except WidthLabError:
            return
        assert code in (0, 1)
        assert outputs["summary"]["all_pass"] is (code == 0)

    @given(SYSTEM | JSON, BODY)
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_descriptor_is_config_error_or_built(self, system, body):
        for build, spec, kind in ((_build_system, system, OrthonormalSystem),
                                  (_build_body, body, Body)):
            try:
                built = build(spec)
            except ConfigError:
                continue
            assert isinstance(built, kind)


class TestTasks:
    def test_expect_row_below_bound(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "task": "expect", "seed": 3, "p": 4.0,
            "system": {"kind": "trig", "max_degree": 1},
            "samples": 20_000,
        })
        code, outputs = run(cfg, out_dir=tmp_path)
        assert code == 0
        row = outputs["rows"][0]
        assert row["value"] <= row["bound"] + row["half_width"] + 1e-6
        assert (tmp_path / "expect.csv").exists()

    def test_expect_at_p_inf_has_no_bound(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "task": "expect", "seed": 3, "p": "inf",
            "system": {"kind": "trig", "max_degree": 1}, "samples": 2000,
        })
        code, outputs = run(cfg, out_dir=tmp_path)
        assert code == 0
        assert outputs["rows"][0]["bound"] == ""
        summary = json.loads((tmp_path / "expect_summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert summary["all_pass"] is True

    def test_volume_task(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "task": "volume", "seed": 1,
            "body": {"kind": "lp", "dim": 2, "p": "inf"},
            "samples": 100_000,
        })
        code, outputs = run(cfg, out_dir=tmp_path)
        assert code == 0
        assert outputs["rows"][0]["value"] == pytest.approx(4 / np.pi, rel=0.05)

    def test_widths_task_column(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "task": "widths", "seed": 2, "semiaxes": [3, 2, 1],
            "orders": [0, 1, 2, 3], "restarts": 64,
        })
        code, outputs = run(cfg, out_dir=tmp_path)
        assert code == 0
        col = [row["exact"] for row in outputs["rows"]]
        assert col == [3.0, 2.0, 1.0, 0.0]
        assert all(row["agree"] for row in outputs["rows"])

    def test_radius_task(self):
        cfg = ExperimentConfig.from_dict({
            "task": "radius", "seed": 4, "p": 2.0, "q": 1.0,
            "system": {"kind": "trig", "max_degree": 1},
            "diagonal": [1.0, 1.0, 0.5], "subspaces": 2, "restarts": 12,
        })
        code, outputs = run(cfg)
        assert code == 0
        assert len(outputs["rows"]) == 2
        assert all(r["radius"] > 0 for r in outputs["rows"])

    def test_scaling_task(self):
        cfg = ExperimentConfig.from_dict({
            "task": "scaling", "seed": 0, "family": "sphere", "d": 2,
            "gamma": 2.0, "levels": [4, 12],
        })
        code, outputs = run(cfg)
        assert code == 0
        assert outputs["rows"][0]["slope_bound"] == pytest.approx(-1.0, abs=1e-9)


    @pytest.mark.parametrize("task, required, written_out", [
        ("radius", {}, {"system": TRIG3, "p": 2.0, "q": 1.0, "diagonal": [1.0, 1.0, 1.0],
                        "subspace_dim": 2, "subspaces": 5, "restarts": 24}),
        ("scaling", {}, {"family": "sphere", "d": 2, "gamma": 2.0, "levels": [4, 12]}),
        ("volume", {"body": {"kind": "lp", "dim": 3, "p": 1}, "samples": 2000},
         {"reference": {"kind": "lp", "dim": 3}}),
        ("widths", {"semiaxes": [2, 1], "restarts": 4}, {"orders": [0, 1, 2]}),
    ])
    def test_defaults_written_out_give_the_same_rows(self, task, required, written_out):
        def rows(fields):
            return run(ExperimentConfig.from_dict({"task": task, "seed": 5, **fields}))[1]["rows"]

        assert rows(required) == rows({**required, **written_out})

    @pytest.mark.parametrize("reference", [{}, None], ids=["empty", "null"])
    def test_empty_or_null_reference_is_config_error(self, reference):
        with pytest.raises(ConfigError, match="field '(body|reference)'"):
            run(ExperimentConfig.from_dict({"task": "volume", "seed": 0, "samples": 10,
                                            "body": {"kind": "lp", "dim": 2},
                                            "reference": reference}))

    def test_empty_orders_give_no_rows(self):
        code, outputs = run(ExperimentConfig.from_dict(
            {"task": "widths", "seed": 0, "semiaxes": [1], "orders": []}))
        assert (code, outputs["rows"]) == (0, [])


class TestVerify:
    def test_registry_has_fifteen_checks(self):
        assert len(CHECKS) == 15

    def test_check_seeds_differ_by_name(self):
        assert check_seed(7, "santalo") != check_seed(7, "net-chain")
        assert check_seed(7, "santalo") == check_seed(7, "santalo")

    def test_subset_runs_and_passes(self):
        reports = verify_all(seed=7, names=["fourier-tail", "weyl-ratio"])
        assert [r.name for r in reports] == ["fourier-tail", "weyl-ratio"]
        assert all(r.passed for r in reports)

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown checks"):
            verify_all(seed=0, names=["nope"])

    def test_empty_check_list_rejected(self):
        with pytest.raises(ConfigError, match="no checks"):
            verify_all(seed=0, names=[])

    def test_duplicate_check_rejected(self, monkeypatch):
        calls = []
        monkeypatch.setitem(CHECKS, "fourier-tail", lambda seed: calls.append(seed))
        with pytest.raises(ConfigError, match="duplicate"):
            verify_all(seed=0, names=["fourier-tail", "fourier-tail"])
        assert calls == []

    def test_checks_take_only_a_seed(self):
        # every budget is a literal of its check: the suite passes nothing else
        for name, check in CHECKS.items():
            assert list(inspect.signature(check).parameters) == ["seed"], name

    def test_cases_assemble_into_one_report(self, monkeypatch):
        assert harness.check_santalo is harness.CHECKS["santalo"]
        monkeypatch.setattr(harness, "CHECKS", {})

        @harness._check("fake", "statement")
        def fake(s):
            yield "meta", [], {"seed": s}
            yield "nan", [float("nan")], 1
            yield "a", [0.5, 2.0], 2
            yield "b", [-0.25], 3

        assert harness.CHECKS == {"fake": fake}
        report = fake(seed=7)
        assert (report.trials, report.violations, report.passed) == (4, 2, False)
        assert np.isnan(report.worst_margin)
        assert list(report.details) == ["meta", "nan", "a", "b"]
        assert report.details["meta"] == {"seed": check_seed(7, "fake")}

    def test_santalo_reports_exact_margin(self):
        report = check_santalo(seed=7)
        assert report.passed
        assert report.details["exact-2d"] == pytest.approx(np.pi**2 - 8.0)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_santalo_p2_slack_is_the_tolerance(self, tmp_path, seed):
        # at p = 2 both volumes are exact up to roundoff, so their half widths
        # vanish and the written slack is the 1e-6 tolerance (raw sums of
        # squares made it 1.0010664e-6 at seed 7)
        cfg = ExperimentConfig.from_dict({"task": "verify", "seed": seed, "checks": ["santalo"]})
        assert run(cfg, out_dir=tmp_path)[0] == 0
        (report,) = json.loads((tmp_path / "verify_summary.json").read_text())["reports"]
        slacks = [d["slack"] for key, d in report["details"].items() if key.startswith("p=2.0,")]
        assert len(slacks) == 3 and all(abs(s - 1e-6) <= 1e-12 for s in slacks), slacks

    @pytest.mark.parametrize("margins", [[float("nan"), 1.0], [1.0, float("nan")]])
    def test_nan_margin_fails_in_any_order(self, margins):
        report = _report("x", "statement", margins)
        assert not report.passed
        assert report.violations == 1
        assert np.isnan(report.worst_margin)

    def test_infinite_margin_is_a_violation(self):
        report = _report("x", "statement", [float("inf"), 1.0])
        assert not report.passed
        assert report.violations == 1

    def test_summary_json_has_no_bare_constants(self, tmp_path, monkeypatch):
        monkeypatch.setitem(CHECKS, "nan-check",
                            lambda seed: _report("nan-check", "s", [float("nan"), 1.0]))
        monkeypatch.setitem(CHECKS, "empty-check", lambda seed: _report("empty-check", "s", []))
        cfg = ExperimentConfig.from_dict({"task": "verify", "seed": 0,
                                          "checks": ["nan-check", "empty-check"]})
        code, _ = run(cfg, out_dir=tmp_path)
        assert code == 1
        summary = json.loads((tmp_path / "verify_summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert [r["worst_margin"] for r in summary["reports"]] == [None, None]
        assert [r["passed"] for r in summary["reports"]] == [False, True]

    def test_cli_prints_nan_margin(self, tmp_path, monkeypatch, capsys):
        from widthlab.cli import main

        monkeypatch.setitem(CHECKS, "nan-check",
                            lambda seed: _report("nan-check", "s", [float("nan")]))
        assert main(["verify", "--checks", "nan-check", "--out", str(tmp_path)]) == 1
        assert "FAIL nan-check: trials=1 violations=1 worst_margin=nan" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["radius-l1", "radius-lq"])
    def test_radius_checks_follow_the_run_seed(self, name, monkeypatch):
        # stubbed ratios that depend on the seeds the check passes
        calls = []
        monkeypatch.setattr(widths, "radius_ratio_samples", lambda kind, seeds, **grid: (
            calls.append(list(seeds)) or [1.0 + (seed % 89) / 89.0 for seed in seeds]))
        first, second = CHECKS[name](7), CHECKS[name](8)
        assert first.details != second.details
        for run_seed, seeds in zip((7, 8), calls):
            s = harness.check_seed(run_seed, name)
            assert seeds == list(range(s, s + 22))

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_negative_control_fails(self, name, monkeypatch):
        # one perturbed oracle or target per check, which the check must catch
        CONTROLS[name](monkeypatch)
        report = CHECKS[name](7)
        assert not report.passed
        assert report.violations > 0


class TestCli:
    def test_verify_subset_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = run_cli(["verify", "--checks", "fourier-tail,sobolev-slope",
                           "--seed", "7", "--out", str(out)])
            assert res.returncode == 0, res.stderr
            assert "PASS fourier-tail" in res.stdout
        assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()
        assert (out1 / "verify_summary.json").read_bytes() == \
            (out2 / "verify_summary.json").read_bytes()

    def test_widths_cli_roundtrip(self, tmp_path):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({"task": "widths", "seed": 3,
                                   "semiaxes": [3, 2, 1], "orders": [1],
                                   "restarts": 64}))
        res = run_cli(["widths", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "widths_summary.json").read_text())
        assert payload["rows"][0]["exact"] == 2.0

    def test_missing_config_is_config_error(self):
        res = run_cli(["expect"])
        assert res.returncode == 1
        assert "configuration error" in res.stderr

    def test_bad_config_field_diagnostic(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"task": "expect", "seed": 1, "bogus": True}))
        res = run_cli(["expect", "--config", str(cfg)])
        assert res.returncode == 1
        assert "bogus" in res.stderr

    @pytest.mark.parametrize("task, raw", [
        ("widths", {"task": "widths", "seed": 1}),
        ("scaling", {"task": "scaling", "seed": 1, "levels": [4]}),
        ("scaling", {"task": "scaling", "seed": 1, "levels": [4, 65]}),
        ("expect", {"task": "expect", "seed": True}),
        ("expect", {"task": "expect", "seed": 1, "p": "abc"}),
        ("volume", {"task": "volume", "seed": 1, "body": {"kind": "lp"}}),
        ("radius", {"task": "radius", "seed": 1, "subspaces": "x"}),
        ("expect", [1, 2]),
        ("expect", 5),
        ("expect", "abc"),
        ("verify", {"task": "verify", "seed": 1, "checks": []}),
        ("expect", {"seed": 1, "system": {"kind": "trig", "n": 9}, "samples": 1000}),
        ("volume", {"seed": 1, "body": {"kind": "lp", "dim": 2, "wobble": 1}}),
        ("volume", {"seed": 1, "body": {"kind": "linear_image", "base": {"kind": "lp", "dim": 2},
                                        "matrix": {"diagonal": [1, 2],
                                                   "dense": [[1, 0], [0, 1]]}}}),
    ], ids=["widths-without-semiaxes", "scaling-one-level", "scaling-level-above-64",
            "bool-seed",
            "non-numeric-p", "lp-body-without-dim", "non-numeric-subspaces",
            "list-config", "number-config", "string-config", "empty-checks",
            "unknown-system-field", "unknown-body-field", "diagonal-and-dense-matrix"])
    def test_invalid_config_is_config_error(self, tmp_path, task, raw):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        res = run_cli([task, "--config", str(cfg)])
        assert res.returncode == 1
        assert res.stderr.startswith("configuration error: "), res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("task, raw", [
        ("expect", {"samples": 10}),
        ("volume", {"body": {"kind": "lp", "dim": 2}, "samples": 10}),
        ("radius", {"subspaces": 1, "restarts": 1}),
        ("widths", {"semiaxes": [1], "orders": [0], "restarts": 1}),
        ("verify", {"checks": ["fourier-tail"]}),
        ("scaling", {}),
    ])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, task, raw):
        assert _main(tmp_path, {"task": task, "seed": 0, **raw}, "--seed", "-1") == 1
        assert capsys.readouterr().err.startswith("configuration error: field 'seed'")

    def test_expect_samples_below_its_minimum_is_config_error(self, tmp_path, capsys):
        # 10 passes the general count rule; the expectation needs 1,000
        assert _main(tmp_path, {"task": "expect", "seed": 0, "samples": 10}) == 1
        assert capsys.readouterr().err.startswith("configuration error: field 'samples'")

    def test_unfinishable_scaling_fails_fast(self, tmp_path):
        # levels 4..12 on the Cayley plane need a 374,332,453-entry multiplier
        # diagonal, about 3 GB of float64, above the 2^23-entry cap; the child's
        # address-space limit keeps a regression from exhausting the machine
        raw = {"task": "scaling", "seed": 0, "family": "cayley_plane"}
        cfg = tmp_path / "cayley.json"
        cfg.write_text(json.dumps(raw))
        res = subprocess.run(
            [sys.executable, "-m", "widthlab.cli", "scaling", "--config", str(cfg)],
            capture_output=True, text=True, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (4 << 30, resource.RLIM_INFINITY)))
        assert res.returncode == 1
        assert res.stderr.startswith("error: "), res.stderr
        t0 = time.perf_counter()
        with pytest.raises(BadDimensions):
            run(ExperimentConfig.from_dict(raw))
        assert time.perf_counter() - t0 < 0.5

    def test_eigenspace_overflow_is_an_error_line(self, tmp_path):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"task": "scaling", "seed": 0, "family": "sphere",
                                   "d": 10_000_000, "levels": [4, 64]}))
        res = run_cli(["scaling", "--config", str(cfg)])
        assert res.returncode == 1
        assert res.stderr.startswith("error: "), res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("task, raw", [
        ("scaling", {"gamma": 727.0, "levels": [5, 8]}),
        ("volume", {"samples": 10, "body": {"kind": "linear_image", "base": {
            "kind": "lp", "dim": 2}, "matrix": {"diagonal": [1e-200, 1e-200]}}}),
        # |x|^p overflows inside the gauge kernel for part of the samples only
        ("volume", {"samples": 1000, "body": {"kind": "linear_image", "base": {
            "kind": "lp", "dim": 2, "p": 2000}, "matrix": {"diagonal": [0.6, 0.6]}}}),
    ], ids=["rate-underflow", "extreme-matrix", "gauge-overflow"])
    def test_float_range_is_an_error_line(self, tmp_path, capsys, task, raw):
        assert _main(tmp_path, {"task": task, "seed": 0, **raw}) == 1
        assert capsys.readouterr().err.startswith(f"error: task {task!r}: ")

    @pytest.mark.parametrize("task, raw, field", [
        ("expect", {"p": 1293.0, "samples": 1000}, "value"),
        ("volume", {"samples": 1000, "body": {
            "kind": "induced", "system": {"kind": "trig", "max_degree": 1}, "p": 1293.0}},
         "value"),
        ("radius", {"p": 1293.0}, "radius"),
    ], ids=["expect-1293", "volume-1293", "radius-1293"])
    def test_high_exponent_norms_in_range(self, tmp_path, capsys, task, raw, field):
        # |f|^1293 leaves the float range: such rows, of the norms and of the
        # ascent's gradients, are computed again scaled
        assert _main(tmp_path, {"task": task, "seed": 1, **raw}) == 0
        for row in json.loads(capsys.readouterr().out)["rows"]:
            assert 0 < row[field] < np.inf

    @pytest.mark.parametrize("config, out_taken, prefix", [
        (None, False, "configuration error: "),
        (b'{"seed": 0, "body": "\xff"}', False, "configuration error: "),
        (b'{"seed": 0, "body": ' + b'{"kind": "linear_image", "matrix": {"diagonal": [1, 1]}, '
         b'"base": ' * 1500 + b'{"kind": "lp", "dim": 2}' + b"}" * 1501, False,
         "configuration error: "),
        (b'{"seed": 0, "samples": 1000, "body": {"kind": "lp", "dim": 2}}', True, "error: "),
    ], ids=["config-is-a-directory", "config-not-utf8", "config-nested-1500-deep",
            "out-is-a-file"])
    def test_bad_input_is_an_error_line(self, tmp_path, capsys, monkeypatch, config,
                                        out_taken, prefix):
        from widthlab.cli import main

        calls = []
        monkeypatch.setattr(harness, "mc_volume_ratio", lambda *a, **k: calls.append(a))
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        if config is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(config)
        if out_taken:
            out.write_bytes(b"")
        assert main(["volume", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert calls == []  # the task never started

    def test_deep_body_is_config_error(self):
        body = {"kind": "lp", "dim": 2}
        for _ in range(3000):
            body = {"kind": "linear_image", "base": body, "matrix": {"diagonal": [1.0, 1.0]}}
        with pytest.raises(ConfigError, match="nested too deeply"):
            run(ExperimentConfig.from_dict({"task": "volume", "seed": 0, "body": body}))

    def test_duplicate_check_names_are_config_error(self, tmp_path):
        res = run_cli(["verify", "--checks", "fourier-tail,fourier-tail",
                       "--out", str(tmp_path)])
        assert res.returncode == 1
        assert res.stderr.startswith("configuration error: "), res.stderr
        assert "PASS" not in res.stdout

    @pytest.mark.parametrize("flag, names", [
        (["--checks", "weyl-ratio,sobolev-slope"], ["weyl-ratio", "sobolev-slope"]),
        (["--all"], ["fourier-tail", "weyl-ratio", "sobolev-slope"]),
    ], ids=["checks", "all"])
    def test_command_line_selection_overrides_the_config(self, tmp_path, monkeypatch, flag,
                                                         names):
        # three cheap checks stand in for the registry that --all runs
        monkeypatch.setattr(harness, "CHECKS", {
            n: CHECKS[n] for n in ("fourier-tail", "weyl-ratio", "sobolev-slope")})
        raw = {"task": "verify", "seed": 7, "checks": ["fourier-tail"]}
        assert _main(tmp_path, raw, *flag, "--out", str(tmp_path / "out")) == 0
        summary = json.loads((tmp_path / "out" / "verify_summary.json").read_text())
        assert [r["name"] for r in summary["reports"]] == names

    def test_all_and_checks_together_are_a_usage_error(self, capsys):
        from widthlab.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--checks", "fourier-tail"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_verify_requires_selection(self):
        res = run_cli(["verify"])
        assert res.returncode == 1
        assert "--all" in res.stderr

    def test_empty_check_list_is_config_error(self):
        res = run_cli(["verify", "--checks", ","])
        assert res.returncode == 1
        assert res.stderr.startswith("configuration error: "), res.stderr
        assert "all checks passed" not in res.stdout

