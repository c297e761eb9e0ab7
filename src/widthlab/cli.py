"""Command line entry point.

Usage::

    widthlab <task> --config experiment.json [--seed S] [--out DIR]
    widthlab verify --all [--seed S] [--out DIR] [--checks a,b,c]

Tasks: expect, volume, radius, widths, scaling, verify.  The exit status is
0 when every checked property passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, WidthLabError
from .harness import _TASKS, ExperimentConfig, _json_ready, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="volume, radius, net and width experiments for induced convex bodies",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _TASKS:
        tp = sub.add_parser(task, help=f"run the {task} task")
        tp.add_argument("--config", type=str, default=None,
                        help="JSON configuration file")
        tp.add_argument("--seed", type=int, default=None,
                        help="override the configuration seed")
        tp.add_argument("--out", type=str, default=None,
                        help="directory for CSV/JSON reports")
        if task == "verify":
            tp.add_argument("--all", action="store_true",
                            help="run every named check")
            tp.add_argument("--checks", type=str, default=None,
                            help="comma-separated check names")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"config file {args.config}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}: line {exc.lineno}: {exc.msg}")
        except UnicodeDecodeError:
            raise ConfigError(f"config file {args.config}: not UTF-8 text") from None
        except RecursionError:
            raise ConfigError(f"config file {args.config}: nested too deeply") from None
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        if "task" in raw and raw["task"] != args.task:
            raise ConfigError(
                f"config task {raw['task']!r} does not match command {args.task!r}")
        raw["task"] = args.task
    elif args.task == "verify":
        raw = {"task": "verify", "seed": 0}
        if getattr(args, "checks", None):
            raw["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
        elif not getattr(args, "all", False):
            raise ConfigError("verify needs --all, --checks, or a config file")
    else:
        raise ConfigError(f"task {args.task!r} requires --config")
    return ExperimentConfig.from_dict(raw, seed_override=args.seed)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        code, outputs = run(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except WidthLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = outputs["summary"]
    if config.task == "verify":
        for report in summary["reports"]:
            flag = "PASS" if report["passed"] else "FAIL"
            print(f"{flag} {report['name']}: trials={report['trials']} "
                  f"violations={report['violations']} "
                  f"worst_margin={report['worst_margin']:.6g}")
        print("all checks passed" if summary["all_pass"] else "FAILURES present")
    else:
        print(json.dumps(_json_ready(summary), sort_keys=True, indent=2))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
