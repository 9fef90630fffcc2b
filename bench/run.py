#!/usr/bin/env python3
"""fockpath benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload oracle-cold --seed 1 --seconds 25 --trace 0

Run from a checkout holding src/fockpath; nothing is installed or built.
Each repetition runs in a fresh worker process (worker.py), so every
repetition starts from cold in-memory state.  Repetitions follow each other
(a closed loop, one process at a time) until the next one would end after
--seconds.

--trace 0 prints the end-to-end metrics: medians over the repetitions of
checks per second of timed run, set-up time and peak resident memory, and
the number of checks a repetition makes.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones,
with the tracing overhead; their span trees are written to
.bench_out/.  Every repetition gates its outputs against the counts and
digests in recorded.json; a difference counts as a failed item.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md next to this file says
why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("oracle-cold", "oracle-cached", "bijection", "formula-wide")
DEFAULT_SEED = 1
# Kept out of development and tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 4405
# The reference speed: worker.reference() taking this long.  Timings are
# reported at that speed, which cancels the drift of a shared machine.
REFERENCE_S = 0.1
# A run must end within this many seconds, whatever --seconds says.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "checks": "count",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # The oracle workloads choose their own cache state; fockpath is imported
    # from this checkout's src only.
    for name in ("FOCKPATH_CACHE", "PYTHONPATH"):
        env.pop(name, None)
    return env


def call_worker(role: str, workload: str, seed: int, deadline: float, cpu: int,
                cache: str | None = None, trace: bool = False) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, WORKER, role, "--workload", workload, "--seed", str(seed),
           "--spawned", repr(spawned), "--cpu", str(cpu)]
    if cache:
        cmd += ["--cache", cache]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker for {workload} passed the {DEADLINE_S:.0f} s deadline") from exc
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker for {workload} exited with {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def repetition(workload: str, seed: int, deadline: float, cpu: int, trace: bool) -> dict:
    """One repetition; oracle-cached first writes its levels in a worker of
    its own, which counts as set-up, into a directory removed afterwards."""
    started = time.monotonic()
    cache = None
    traces = {}
    try:
        write_s = 0.0
        if workload == "oracle-cached":
            os.makedirs(WORK_DIR, exist_ok=True)
            cache = tempfile.mkdtemp(prefix="oracle-", dir=WORK_DIR)
            written = call_worker("write", workload, seed, deadline, cpu, cache, trace)
            write_s = written["wall_s"]
            traces["write"] = written.get("trace")
        result = call_worker("run", workload, seed, deadline, cpu, cache, trace)
        traces["run"] = result.pop("trace", None)
    finally:
        if cache:
            shutil.rmtree(cache, ignore_errors=True)
    result["setup_s"] += write_s
    result["wall_s"] = time.monotonic() - started
    result["traces"] = traces
    return result


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition.  Its worker trees hang
    under one node per worker ("write", "run"), and the metrics count both:
    on oracle-cached, OracleCache.store and the elimination behind it are
    set-up work."""
    import tracer

    root = tracer.Node("bench")
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    for phase, trace in rep["traces"].items():
        node = root.children[phase] = tracer.Node.from_json(trace["tree"])
        node.name = phase
        node.calls = 1
        node.total = sum(child.total for child in node.children.values())
        for name, value in trace["counters"].items():
            counters[name] += value
    rep["tree"] = root.to_json()
    return tracer.layer_metrics(root, counters)


# Per-layer metrics that must show work on a workload, because the README
# table expects them to move its end-to-end metrics.
EXPECTED_WORK = {
    "oracle-cold": (
        "partitions.dominates.calls",
        "laurent.LaurentPolynomial.__add__.calls",
        "laurent.LaurentPolynomial.__mul__.calls",
        "laurent.LaurentPolynomial.symmetric_split.calls",
        "fockspace.CanonicalBasisOracle.element.calls",
        "fockspace.apply_f.calls",
        "closedform.sign_sequence_of.calls",
    ),
    "oracle-cached": (
        "fockspace.expand_in_canonical.calls",
        "fockspace.OracleCache.load.calls",
        "fockspace.OracleCache.store.calls",
        "fockspace.cache.bytes_read",
        "fockspace.cache.bytes_written",
    ),
    "bijection": (
        "signseq.match_pairs.calls",
        "signseq.SignSequence.restrict.calls",
        "signseq.onto.calls",
        "signseq.valley_set.calls",
        "bijection.build_bijection.calls",
        "bijection.left_elements.calls",
        "bijection.right_elements.calls",
    ),
    "formula-wide": (
        "latticepath.well_nested_collections.calls",
        "latticepath.well_nested_collections.candidates",
        "closedform.sign_sequence_of.calls",
    ),
}


def self_test() -> None:
    """Every wrapped name still resolves (a rename fails here, loudly), and
    the metrics this script prints are the ones BENCHMARK.json lists."""
    sys.path.insert(0, SRC)
    import tracer

    for span in tracer.span_names():
        tracer.resolve(span)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if ([m["name"] for m in spec["end_to_end"]] != list(END_TO_END_UNITS)
            or [m["name"] for m in spec["per_layer"]] != tracer.metric_names()):
        raise LookupError("metric names differ from BENCHMARK.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fockpath", "__init__.py")):
        print(f"error: no fockpath sources under {SRC}; run from a fockpath checkout",
              file=sys.stderr)
        return 2
    try:
        self_test()
    except (ImportError, LookupError, OSError) as exc:
        print(f"error: benchmark self-test: {exc}", file=sys.stderr)
        return 1

    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while True:
            cpu = cpus[len(plain) % len(cpus)]
            rep = repetition(args.workload, args.seed, deadline, cpu, trace=False)
            plain.append(rep)
            last = rep["wall_s"]
            if args.trace:
                rep = repetition(args.workload, args.seed, deadline, cpu, trace=True)
                traced.append(rep)
                last += rep["wall_s"]
            if time.monotonic() - start + last > args.seconds:
                break
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    # Times at the reference speed: t * REFERENCE_S / reference_s.
    for rep in reps:
        rep["scale"] = REFERENCE_S / rep["reference_s"]
    attempted = sum(rep["checks"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for problem in sorted({p for rep in reps for p in rep["problems"]}):
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced repetitions in {time.monotonic() - start:.1f} s, "
          f"{failed} of {attempted} checks failed")

    if args.trace:
        metrics, units = traced_metrics(args, plain, traced)
    else:
        print(f"  unscaled: checks_per_s "
              f"{statistics.median(rep['checks'] / rep['run_s'] for rep in plain):.6g} 1/s, "
              f"setup_s {statistics.median(rep['setup_s'] for rep in plain):.6g} s")
        metrics = {
            "checks_per_s": statistics.median(
                rep["checks"] / (rep["run_s"] * rep["scale"]) for rep in plain),
            "checks": statistics.median_low(rep["checks"] for rep in plain),
            "setup_s": statistics.median(rep["setup_s"] * rep["scale"] for rep in plain),
            "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in plain),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<56} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def traced_metrics(args, plain: list[dict], traced: list[dict]):
    import tracer

    per_rep = [layer_metrics(rep) for rep in traced]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    checks = statistics.median_low(rep["checks"] for rep in traced)
    metrics["closedform.sign_sequence_of.calls_per_check"] = (
        metrics["closedform.sign_sequence_of.calls"] / checks)
    metrics["trace.checks"] = checks
    metrics["trace.overhead_s"] = (
        statistics.median(rep["wall_s"] * rep["scale"] for rep in traced)
        - statistics.median(rep["wall_s"] * rep["scale"] for rep in plain))

    missing = [name for name in EXPECTED_WORK[args.workload] if not metrics[name]]
    if missing:
        raise SystemExit(f"error: benchmark self-test: no work recorded on "
                         f"{args.workload} for {missing}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "span_trees": [rep["tree"] for rep in traced]}, fh)
    print(f"span trees written to {os.path.relpath(path, ROOT)}")
    return metrics, {name: tracer.unit(name) for name in metrics}


if __name__ == "__main__":
    sys.exit(main())
