#!/usr/bin/env python3
"""Tabulate every covered decomposition polynomial at one size.

For each e-regular partition of n and each residue, list the nonzero
polynomials of all same-residue moves, together with the oracle value so
the agreement is visible at a glance.  Exit codes are fockpath's: 1 when
the oracle disagrees on any move; 2, after an error line, on a modulus
below 2, a negative size or a --cache that cannot be used as a directory
(a regular file, say); 3 on a broken invariant of the oracle.
"""

import argparse
import sys

from fockpath.cli import exits
from fockpath.closedform import admissible_moves, decomposition_polynomial
from fockpath.fockspace import get_oracle, is_e_regular
from fockpath.partitions import check_e, format_partition, partitions_of


def print_table(e: int, n: int, cache: str | None) -> tuple[int, int]:
    """Print one line per move; the number of moves and of disagreements."""
    oracle = get_oracle(e, cache)
    rows = disagreements = 0
    for lam in partitions_of(n):
        if not is_e_regular(lam, e):
            continue
        for r in range(e):
            for move in admissible_moves(lam, e, r):
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
    return rows, disagreements


@exits
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--e", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--cache", help="oracle cache directory")
    args = parser.parse_args(argv)
    check_e(args.e)
    if args.n < 0:
        raise ValueError(f"n must be non-negative, got {args.n}")
    rows, disagreements = print_table(args.e, args.n, args.cache)
    print(f"-- {rows} moves at e={args.e}, n={args.n}")
    if disagreements:
        print(f"error: the oracle disagrees on {disagreements} of {rows} moves", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
