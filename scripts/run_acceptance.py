#!/usr/bin/env python3
"""Run every verification sweep at full acceptance budgets and summarise.

The sweeps and both tiers come from sweeps.SWEEPS: each sweep at its
acceptance config, then, with --deep, each at its deep config (as
<kind>-deep) and map-digest: the sha256 of the explicit map on every
instance up to MAP_DIGEST_POSITIONS positions, printed in canonical form,
must equal MAP_DIGEST.  --cache goes to every config with a cache_dir.
Exits nonzero if any sweep reports a failure.
"""

import argparse
import dataclasses
import functools
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", help="oracle cache directory")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--deep", action="store_true",
                        help="also run every sweep's deep tier and map-digest")
    args = parser.parse_args(argv)

    tiers = [("", "acceptance"), ("-deep", "deep")] if args.deep else [("", "acceptance")]
    runs = []
    for suffix, tier in tiers:
        for kind, sweep in sweeps.SWEEPS.items():
            cfg = getattr(sweep, tier)
            if hasattr(cfg, "cache_dir"):
                cfg = dataclasses.replace(cfg, cache_dir=args.cache)
            runs.append((kind + suffix, functools.partial(sweep.run, cfg)))
    if args.deep:
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
