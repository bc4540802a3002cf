"""Run one workload in this (fresh) process and print its result as JSON.

Usage (from the repository root)::

    python3 perfbench/worker.py --workload film --seed 1 --length 20 \
        --mode run --spawned-at <time.time() of the parent at spawn>

Modes:

``run``     setup, the timed phase in one-virtual-second chunks, drain,
            close everything and check it (the untraced measurement).
``whole``   as ``run`` but the timed phase is one ``run()`` call; only
            its digest matters (the chunking cross-check).
``trace``   as ``run`` under the layer profiler; ``--out`` names the
            JSON file the spans and counts are written to at the end.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--mode", default="run",
                        choices=("run", "whole", "trace"))
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.length)
    profilers = {}
    if args.mode == "trace":
        from layers import LayerProfiler

        def phase(name):
            profilers[name] = LayerProfiler(SRC, HERE)
            return profilers[name]
    else:
        from contextlib import nullcontext

        def phase(name):
            return nullcontext()

    with phase("setup"):
        workload.setup()
    setup_s = time.time() - spawned_at
    result = {"workload": args.workload, "seed": args.seed,
              "length": args.length, "mode": args.mode, "setup_s": setup_s}
    wall0 = time.perf_counter()
    with phase("data"):
        steps = workload.timed_phase(chunked=args.mode != "whole")
    data_wall = time.perf_counter() - wall0
    with phase("finish"):
        workload.finish()

    result.update({
        "data_wall_s": data_wall,
        "step_s": steps,
        "presented": workload.presented_in_phase,
        "failures": workload.failures(),
        "digest": workload.digest(),
        "delivery": workload.delivery(),
        "links": workload.links,
        "counts": workload.counts(),
        "vc": workload.vc_totals.values,
        "connects": [workload.connects_attempted, workload.connects_failed],
        "renegotiations": [workload.renegotiations_attempted,
                           workload.renegotiations_failed],
        "disconnects": [len(workload.op_wall["disconnect"]),
                        len(workload.disconnects_lost)],
        "tail_undetected": sum(workload.tail_undetected.values()),
        "op_wall_s": workload.op_wall,
        "peak_rss_mib": _peak_rss_mib(),
    })
    if profilers:
        from layers import calibrate

        # Calibrated after the workload, so it cannot disturb it.
        leftover = calibrate(SRC, HERE)
        for prof in profilers.values():
            prof.leftover_per_event_s = leftover
        document = {name: prof.document() for name, prof in profilers.items()}
        result["trace"] = {
            "data": document["data"],
            "reserve_s": [span for prof in profilers.values()
                          for span in prof.spans.get("netsim.reserve", [])],
        }
        if args.out:
            os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                        exist_ok=True)
            with open(args.out, "w") as fh:
                json.dump(document, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
