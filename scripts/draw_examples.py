#!/usr/bin/env python3
"""Re-draw the worked path figures (ASCII to stdout, SVG to files).

Exit codes are fockpath's: 2, after an error line, if the SVG is unwritable.
"""

import argparse
import sys

from fockpath.cli import exits
from fockpath.latticepath import latticed_paths, render_ascii, render_svg
from fockpath.signseq import SignSequence


@exits
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--svg-out", help="write all five paths to one SVG file")
    args = parser.parse_args(argv)

    nine = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    paths = latticed_paths(nine)
    for path in paths:
        print(f"norm {path.norm}, flattened {sorted(path.flattened)}")
        print(render_ascii(path, overlay=True))
        print()
    if args.svg_out:
        with open(args.svg_out, "w", encoding="utf-8") as fh:
            fh.write(render_svg(paths) + "\n")
        print(f"wrote {args.svg_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
