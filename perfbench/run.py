"""widthlab benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-all --seed 7 --seconds 18 --trace 0

Run from the repository root.  Every repetition runs in a fresh interpreter
(``child.py``), one at a time, so caches and lazy imports start cold as they
do for a CLI user.  With ``--trace 0`` repetitions run untraced, at least
one, until whole repetitions come nearest to ``--seconds`` of timed work; a
few set-up-only interpreters make ``setup_s`` a median of five, and the
end-to-end metrics
are medians over repetitions.  With ``--trace 1`` one traced repetition
gives the per-layer metrics.  The last line of standard output is the
result object; the lines before it record the environment and any failed
operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "mc-sweep", "dual-search")
DEADLINE_S = 170.0  # every child is stopped by then
SETUP_SAMPLES = 5
# One check thread: with two, peak RSS jumps between about 220 and 326 MB
# depending on which checks overlap, and per-check spans overlap in time.
# verify-all therefore does not exercise the check thread pool that users
# get by default, and cannot show whether serial checks beat the pool.
THREADS = 1


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": len(os.sched_getaffinity(0)), "OPENBLAS_NUM_THREADS": "1",
            "WIDTHLAB_THREADS": str(THREADS), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "seed": seed}


class Runner:
    """Starts children one at a time and stops each before the deadline."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.deadline = time.monotonic() + DEADLINE_S
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", WIDTHLAB_THREADS=str(THREADS),
                        PYTHONPATH=os.pathsep.join(path))
        self.count = 0

    def child(self, mode: str) -> dict | None:
        self.count += 1
        out = self.workdir / f"result{self.count}.json"
        rep_dir = self.workdir / f"rep{self.count}"
        args = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
                mode, repr(time.monotonic()), str(rep_dir), str(out)]
        proc = subprocess.Popen(args, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"{self.workload}: {mode} repetition stopped at the deadline",
                  file=sys.stderr)
            return None
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if code != 0 or not out.exists():
            print(f"{self.workload}: {mode} repetition exited with {code}", file=sys.stderr)
            return None
        return json.loads(out.read_text())


def _check_determinism(workload, seed, reps) -> tuple[str, bool, str] | None:
    """verify-all output must match every earlier run of this source and seed."""
    if workload != "verify-all" or not reps:
        return None
    digests = {r["summary_sha256"] for r in reps}
    ref = HERE / "_work" / "ref" / f"verify-{_source_digest()}-{seed}.sha256"
    if ref.exists():
        digests.add(ref.read_text().strip())
    else:
        ref.parent.mkdir(parents=True, exist_ok=True)
        ref.write_text(reps[0]["summary_sha256"] + "\n")
    return ("verify-summary-bytes", len(digests) == 1, " ".join(sorted(digests)))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".rows_per_call"):
        return "rows"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "widthlab" / "__init__.py").is_file():
        print(f"no widthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir)
    reps, setups, crashed = [], [], 0
    try:
        if args.trace:
            res = runner.child("trace")
            reps = [res] if res else []
            crashed = 0 if res else 1
        else:
            timed = 0.0
            # stop at the repetition boundary nearest to --seconds
            while not reps or timed + timed / len(reps) / 2 < args.seconds:
                started = time.monotonic()
                res = runner.child("run")
                if res is None:
                    crashed += 1
                    break
                reps.append(res)
                setups.append(res["setup_s"])
                timed += res["wall_s"]
                # leave room for one more repetition of the same length and
                # for the set-up-only interpreters
                if 2 * time.monotonic() - started > runner.deadline - 15:
                    break
            while reps and len(setups) < SETUP_SAMPLES:
                res = runner.child("setup")
                if res is None:
                    crashed += 1
                    break
                setups.append(res["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not reps:
        print(f"{args.workload}: no repetition completed", file=sys.stderr)
        return 1
    ops = [tuple(op) for r in reps for op in r["ops"]]
    det = _check_determinism(args.workload, args.seed, reps)
    if det:
        ops.append(det + (None,))
    failed = [op for op in ops if not op[1]] + [("repetition", False, "crashed", None)] * crashed
    attempted = len(ops) + crashed

    def med(key):
        return statistics.median(r[key] for r in reps)

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in reps[0]["layers"].items()}
        metrics["trace.wall_s"] = {"value": reps[0]["wall_s"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
            "gauge_rows_per_s": {
                "value": statistics.median(r["gauge_rows"] / r["wall_s"] for r in reps),
                "unit": "1/s"},
        }
    print(json.dumps({"env": _environment(args.seed), "workload": args.workload,
                      "repetitions": len(reps), "setup_samples": len(setups),
                      "wall_s": [r["wall_s"] for r in reps],
                      "op_s": {op[0]: op[3] for op in reps[0]["ops"] if op[3] is not None}}))
    for name, _, note, _ in failed:
        print(f"FAILED {name}: {note}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
