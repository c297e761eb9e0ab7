import json
import subprocess
import sys

import numpy as np
import pytest

from widthlab.errors import ConfigError
from widthlab.harness import (CHECKS, ExperimentConfig, _report, check_radius_l1,
                              check_santalo, check_seed, run, verify_all)


def run_cli(args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "widthlab.cli", *args],
                          capture_output=True, text=True, env=full_env)


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

    def test_seed_override(self):
        cfg = ExperimentConfig.from_dict({"task": "expect", "seed": 1},
                                         seed_override=9)
        assert cfg.seed == 9


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

    def test_santalo_reports_exact_margin(self):
        report = check_santalo(seed=7, mc_seeds=1, samples=1500)
        assert report.passed
        assert report.details["exact-2d"] == pytest.approx(np.pi**2 - 8.0)

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

    def test_inflated_constant_breaks_radius_check(self):
        report = check_radius_l1(seed=7, constant_scale=10.0)
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

    def test_verify_requires_selection(self):
        res = run_cli(["verify"])
        assert res.returncode == 1
        assert "--all" in res.stderr

    def test_threads_env_does_not_change_results(self, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out, threads in ((out1, "1"), (out2, "3")):
            res = run_cli(["verify", "--checks", "weyl-ratio,fourier-tail",
                           "--seed", "5", "--out", str(out)],
                          env={"WIDTHLAB_THREADS": threads})
            assert res.returncode == 0
        assert (out1 / "verify_summary.json").read_bytes() == \
            (out2 / "verify_summary.json").read_bytes()
