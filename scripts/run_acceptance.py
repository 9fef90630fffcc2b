#!/usr/bin/env python3
"""Run every verification sweep at full acceptance budgets and summarise.

Equivalent to the CLI `fockpath verify ...` invocations, collected in one
place; exits nonzero if any sweep reports a failure.  --deep adds, after the
default sweeps, a formula sweep at sweeps.DEEP_FORMULA_BUDGETS, a branching
sweep at sweeps.DEEP_BRANCHING_BUDGETS, an exhaustive norm-multiset sweep on
up to sweeps.DEEP_BIJECTION_POSITIONS positions, the explicit bijection on
every instance up to sweeps.DEEP_CONSTRUCTION_POSITIONS positions, the
consistency sweep up to size sweeps.DEEP_CONSISTENCY_N, and map-digest: the
sha256 of the explicit map on every instance up to MAP_DIGEST_POSITIONS
positions, printed in canonical form, must equal MAP_DIGEST.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time

from fockpath import sweeps
from fockpath.bijection import build_bijection

MAP_DIGEST_POSITIONS = 8
MAP_DIGEST = "e563e2abea7db6ae5972bcc9b67a1c383fe1b1856fe9c21cca5a6453e6116145"


def canon(x) -> str:
    """A print of x that does not depend on how its sets were built: a
    dataclass as Name(field=..., ...) in field order, a set or frozenset as
    {...} with its members' prints sorted, a tuple as (a, b) (a 1-tuple as
    (a)), anything else by repr."""
    if dataclasses.is_dataclass(x):
        fields = ", ".join(f"{f.name}={canon(getattr(x, f.name))}"
                           for f in dataclasses.fields(x))
        return f"{type(x).__name__}({fields})"
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(map(canon, x))) + "}"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(canon, x)) + ")"
    return repr(x)


def map_digest(max_positions: int) -> tuple[str, int]:
    """sha256 over canon(el) + "->" + canon(m[el]) for each instance's map
    m, keys in canonical order; and the number of maps."""
    h = hashlib.sha256()
    maps = 0
    for t, a, b in sweeps.iter_exhaustive_instances(max_positions):
        mapping = build_bijection(t, a, b)
        for key, image in sorted((canon(el), canon(img)) for el, img in mapping.items()):
            h.update((key + "->" + image).encode())
        maps += 1
    return h.hexdigest(), maps


def run_map_digest() -> sweeps.SweepReport:
    start = time.perf_counter()
    report = sweeps.SweepReport(kind="map-digest")
    digest, report.checked = map_digest(MAP_DIGEST_POSITIONS)
    report.notes = {"max_positions": MAP_DIGEST_POSITIONS, "digest": digest}
    if digest != MAP_DIGEST:
        report.fail(expected=MAP_DIGEST, got=digest)
    report.seconds = time.perf_counter() - start
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", help="oracle cache directory")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--deep", action="store_true",
                        help="also run the deep formula, branching, bijection, "
                             "construction and consistency budgets")
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
        runs.append(("branching-deep", lambda: sweeps.run_branching_sweep(
            sweeps.BranchingSweepConfig(budgets=sweeps.DEEP_BRANCHING_BUDGETS,
                                        cache_dir=args.cache))))
        runs.append(("bijection-deep", lambda: sweeps.run_bijection_sweep(
            sweeps.BijectionSweepConfig(
                max_positions=sweeps.DEEP_BIJECTION_POSITIONS, samples=0))))
        runs.append(("construction-deep", lambda: sweeps.run_construction_sweep(
            sweeps.ConstructionSweepConfig(
                max_positions=sweeps.DEEP_CONSTRUCTION_POSITIONS))))
        runs.append(("consistency-deep", lambda: sweeps.run_consistency_sweep(
            sweeps.ConsistencySweepConfig(max_n=sweeps.DEEP_CONSISTENCY_N))))
        runs.append(("map-digest", run_map_digest))

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
