"""One repetition of a benchmark workload, in a fresh process.

A fresh process per repetition means every repetition starts cold: no
oracle left in fockpath's process-global registry, no warm memo or
``lru_cache`` from an earlier repetition.  run.py starts this script; it
prints one JSON object on standard output.

Roles:
  write  oracle-cached set-up: compute the oracle levels and write them to
         --cache.
  run    set up (import, input generation), run the timed calls, then gate
         the outputs against the recorded counts and digests.

Both roles run pinned to the CPU given by --cpu.  Around its timed calls the
run role times a fixed reference loop on that CPU; run.py uses it to report
times at a reference speed (see README.md).
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


def reference() -> float:
    """Seconds this CPU takes, right now, for a fixed piece of pure-Python
    work: tuples, dict updates, small frozensets and sorts, the operations
    fockpath spends its time on.  It calls nothing in fockpath, so no change
    to fockpath changes it."""
    start = time.perf_counter()
    counts: dict = {}
    acc = 0
    for i in range(100_000):
        key = (i % 53, i % 47)
        counts[key] = counts.get(key, 0) + 1
        acc += len(frozenset((i % 7, i % 11, i % 13)) & {1, 2, 3})
        acc += sorted((i % 5, i % 3, i % 17))[0]
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("write", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="the parent's time.monotonic() when it started this process")
    parser.add_argument("--cpu", type=int, required=True, help="the CPU to run on")
    parser.add_argument("--cache", help="oracle level directory")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    import fockpath
    if not os.path.abspath(fockpath.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fockpath was imported from {fockpath.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    result: dict = {}
    if args.role == "write":
        workload.write_cache(args.cache)
    else:
        inputs = workload.prepare(args.seed)
        # CLOCK_MONOTONIC is system-wide on Linux, so this includes the
        # interpreter start since the parent's timestamp.
        result["setup_s"] = time.monotonic() - args.spawned
        before = reference()
        start = time.perf_counter()
        outcome = workload.run(inputs, args.cache)
        result["run_s"] = time.perf_counter() - start
        result["reference_s"] = (before + reference()) / 2
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        result["trace"] = {"tree": tracer.root.to_json(), "counters": tracer.counters}
    if args.role == "run":
        gate = workload.gate(outcome, inputs, args.seed, workloads.load_recorded())
        result.update(checks=workload.checks(outcome), failed=gate.failed,
                      problems=gate.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
