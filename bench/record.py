#!/usr/bin/env python3
"""Write recorded.json: the counts and digests every benchmark run gates on.

    python3 bench/record.py

Run once, at the commit that defines the benchmark; later commits are
compared with what it recorded.  Each workload runs in this process and must
pass its own gate (sweep failures, logged construction errors and the
criterion-6 shapes) before anything is recorded.  The record digests of
formula-wide and the sample digests of bijection cover RECORDED_SEEDS; other
seeds are gated on counts and shapes only.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402

RECORDED_SEEDS = sorted(set(range(64)) | {run.DEFAULT_SEED, run.HELD_OUT_SEED})


def gated(name: str, seed: int, provisional):
    """Run a workload once and gate it against ``provisional(record)``."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed)
    outcome = workload.run(inputs, None)
    record = workload.record(outcome, inputs)
    gate = workload.gate(outcome, inputs, seed, provisional(record))
    if gate.failed:
        raise SystemExit(f"{name} seed {seed} fails its gate: {gate.problems}")
    return inputs, outcome, record


def main() -> int:
    oracle = gated("oracle-cold", 0, lambda rec: {"oracle": rec})[2]
    print("oracle", oracle, flush=True)

    bijection = gated("bijection", 0, lambda rec: {"bijection": dict(rec, sample_digests={})})[2]
    bijection["sample_digests"] = {
        str(seed): workloads.BijectionWorkload.sample_digest(seed) for seed in RECORDED_SEEDS
    }
    print("bijection", bijection["construction"], bijection["samples"], flush=True)

    wide = {"checks": workloads.WIDE_MOVES, "digests": {}}
    for seed in RECORDED_SEEDS:
        moves, polys, _ = gated("formula-wide", seed, lambda rec: {"formula-wide": dict(rec, digests={})})
        wide["digests"][str(seed)] = workloads.digest(
            workloads.FormulaWideWorkload.records(moves, polys))
        print("formula-wide seed", seed, flush=True)

    recorded = {"oracle": oracle, "bijection": bijection, "formula-wide": wide}
    with open(os.path.join(HERE, "recorded.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
