"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE T_SPAWN WORKDIR RESULT

MODE is ``setup`` (stop before the timed call), ``run`` (untraced) or
``trace``.  T_SPAWN is the parent's CLOCK_MONOTONIC reading taken just
before it started this process, so ``setup_s`` covers interpreter start,
imports and input construction.  The result is written as JSON to RESULT.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    workload, seed, mode, t_spawn, workdir, result_path = argv
    import tracer
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    tr = tracer.install() if mode == "trace" else None
    state = setup(int(seed))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    result = {"setup_s": t0 - float(t_spawn)}
    if mode != "setup":
        c0 = time.process_time()
        ops, extra = run(state, workdir)
        result["cpu_s"] = time.process_time() - c0
        result["wall_s"] = time.monotonic() - t0
        result.update(extra, ops=ops,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tr is not None:
            result["layers"] = tracer.summarize(tr)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
