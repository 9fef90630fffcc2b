#!/usr/bin/env python3
"""Re-draw the worked path figures (ASCII to stdout, SVG to files).

Exits 2, after an error line, when the SVG file cannot be written.
"""

import argparse
import sys

from fockpath.latticepath import latticed_paths, render_ascii, render_svg
from fockpath.signseq import SignSequence


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
        try:
            with open(args.svg_out, "w", encoding="utf-8") as fh:
                fh.write(render_svg(paths) + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.svg_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
