#!/usr/bin/env python3
"""Run every verification sweep at full acceptance budgets and summarise.

Equivalent to the CLI `fockpath verify ...` invocations, collected in one
place; exits nonzero if any sweep reports a failure.  --deep adds, after the
default sweeps, a formula sweep at sweeps.DEEP_FORMULA_BUDGETS, an
exhaustive norm-multiset sweep on up to sweeps.DEEP_BIJECTION_POSITIONS
positions, the explicit bijection on every instance up to
sweeps.DEEP_CONSTRUCTION_POSITIONS positions and the consistency sweep up
to size sweeps.DEEP_CONSISTENCY_N.
"""

import argparse
import json
import sys

from fockpath import sweeps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", help="oracle cache directory")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--deep", action="store_true",
                        help="also run the deep formula, bijection, construction "
                             "and consistency budgets")
    args = parser.parse_args()

    # The acceptance budgets are the config dataclasses' defaults.
    runs = [
        ("formula", lambda: sweeps.run_formula_sweep(
            sweeps.FormulaSweepConfig(cache_dir=args.cache))),
        ("branching", lambda: sweeps.run_branching_sweep(
            sweeps.BranchingSweepConfig(cache_dir=args.cache))),
        ("bijection", lambda: sweeps.run_bijection_sweep(sweeps.BijectionSweepConfig())),
        ("construction", lambda: sweeps.run_construction_sweep(
            sweeps.ConstructionSweepConfig())),
        ("consistency", lambda: sweeps.run_consistency_sweep(
            sweeps.ConsistencySweepConfig())),
    ]
    if args.deep:
        runs.append(("formula-deep", lambda: sweeps.run_formula_sweep(
            sweeps.FormulaSweepConfig(budgets=sweeps.DEEP_FORMULA_BUDGETS,
                                      cache_dir=args.cache))))
        runs.append(("bijection-deep", lambda: sweeps.run_bijection_sweep(
            sweeps.BijectionSweepConfig(
                max_positions=sweeps.DEEP_BIJECTION_POSITIONS, samples=0))))
        runs.append(("construction-deep", lambda: sweeps.run_construction_sweep(
            sweeps.ConstructionSweepConfig(
                max_positions=sweeps.DEEP_CONSTRUCTION_POSITIONS))))
        runs.append(("consistency-deep", lambda: sweeps.run_consistency_sweep(
            sweeps.ConsistencySweepConfig(max_n=sweeps.DEEP_CONSISTENCY_N))))

    all_ok = True
    results = []
    for name, runner in runs:
        report = runner()
        all_ok &= report.ok
        results.append(report.to_json())
        if not args.json:
            status = "ok" if report.ok else "FAILED"
            print(f"{name:>12}: {status} ({report.checked} checks, {report.seconds:.1f}s)")
            for failure in report.failures[:10]:
                print(f"    {failure}")
    if args.json:
        print(json.dumps(results, sort_keys=True))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
