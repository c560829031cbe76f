"""One pass of one workload, in a fresh process.

    python3 perfbench/one_pass.py --workload NAME --seed N
        --mode plain|traced|setup

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and reads the one
JSON line it prints.  A plain pass times only the workload's unit; a
traced pass wraps every layer target instead.  Either way the originals
are restored before the artifact is checked.  A setup pass stops where
the entry call would start: it measures set-up time only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback

from layers import LayerTrace
from spans import Patcher, Tracer, perf_counter
from workloads import WORKLOADS, digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"),
                        required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    entry = getattr(importlib.import_module(workload.entry.module),
                    workload.entry.qualname)
    patcher = Patcher()
    clock = workload.clock()
    if args.mode != "traced":
        patcher.patch(clock.patches())
    else:
        tracer = Tracer()
        layers = LayerTrace(tracer)
        patcher.patch(layers.patches)
        entry = tracer.wrap(workload.entry.name, entry)

    result, problems = None, []
    entry_at = perf_counter()
    if args.mode == "setup":
        patcher.restore()
        print(json.dumps({"mode": "setup", "entry_at": entry_at}))
        return 0
    try:
        result = entry(seed=args.seed, **workload.kwargs)
    except Exception:                      # the pass reports, run.py decides
        problems.append(traceback.format_exc())
    wall_s = perf_counter() - entry_at
    patcher.restore()

    out = {
        "mode": args.mode,
        "entry_at": entry_at,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units_ms": clock.samples_ms,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "refused": 0,
        "digest": None,
    }
    if result is not None:
        try:
            problems += workload.check(result)
            out["digest"] = digest(result)
            out["refused"] = workload.refused(result)
        except Exception:                  # a malformed artifact
            problems.append(traceback.format_exc())
    if args.mode == "traced":
        out["layers"] = layers.metrics()
        out["counts"] = layers.counts()
    out["problems"] = problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
