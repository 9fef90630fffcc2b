#!/usr/bin/env python3
"""Tabulate every covered decomposition polynomial at one size.

For each e-regular partition of n and each residue, list the nonzero
polynomials of all same-residue moves, together with the oracle value so
the agreement is visible at a glance.  Exits 1 when the oracle disagrees
on any move, and 2, after an error line, on a modulus below 2 or a
negative size.
"""

import argparse
import sys

from fockpath.closedform import admissible_moves, decomposition_polynomial
from fockpath.fockspace import get_oracle, is_e_regular
from fockpath.partitions import check_e, format_partition, partitions_of


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--e", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--cache", help="oracle cache directory")
    args = parser.parse_args(argv)
    try:
        check_e(args.e)
        if args.n < 0:
            raise ValueError(f"n must be non-negative, got {args.n}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    oracle = get_oracle(args.e, args.cache)
    rows = disagreements = 0
    for lam in partitions_of(args.n):
        if not is_e_regular(lam, args.e):
            continue
        for r in range(args.e):
            for move in admissible_moves(lam, args.e, r):
                if move.is_identity:
                    continue
                poly = decomposition_polynomial(move)
                check = oracle.coefficient(move.target, lam)
                mark = "" if poly == check else "  << ORACLE DISAGREES"
                print(
                    f"d[{format_partition(move.target)}, {format_partition(lam)}]"
                    f" (r={r}, add={sorted(move.added)}, remove={sorted(move.removed)})"
                    f" = {poly}{mark}"
                )
                rows += 1
                disagreements += poly != check
    print(f"-- {rows} moves at e={args.e}, n={args.n}")
    if disagreements:
        print(f"error: the oracle disagrees on {disagreements} of {rows} moves", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
