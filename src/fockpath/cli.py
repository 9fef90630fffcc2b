"""Command-line front end.

Subcommands: decomp (decomposition polynomial of a move), moves (list all
covered moves from a partition), paths (latticed paths / well-nested
collections of a sign sequence), oracle (canonical-basis coefficients and
the level cache), verify (the verification sweeps), render (path drawing).

Exit codes, which the scripts share through exits: 0 success, 1 verification
failure, 2 usage, scope, size or file error (a flag that the command would
ignore included), 3 a broken invariant of the oracle or of exact arithmetic
(a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from collections import Counter

from .closedform import (
    MoveSpec,
    admissible_moves,
    decomposition_paths,
    detect_move,
    norm_polynomial,
)
from .fockspace import UnitriangularityError, cache_roundtrip, get_oracle
from .latticepath import (
    LatticedPath,
    latticed_paths,
    render_ascii,
    render_svg,
    standing_pairs,
    well_nested_collections,
    window_pairs,
)
from .laurent import DivisibilityError
from .partitions import Partition, check_e, check_partition, format_partition
from .signseq import SignSequence
from . import sweeps

USAGE_ERROR = 2
VERIFY_ERROR = 1
INVARIANT_ERROR = 3


class CliError(ValueError):
    """A usage error found by a command; main reports it like a bad input."""


def _parse_positions(args, name: str) -> frozenset[int]:
    """The comma-separated positions given to --name; none when absent."""
    text = (getattr(args, name) or "").strip()
    values = [_integer(x, f"--{name}") for x in text.split(",")] if text else []
    return _once(values, f"--{name}:")


def _once(values: list, label: str, show=str) -> frozenset:
    """The values as a set; CliError naming those given more than once."""
    repeated = sorted(x for x, n in Counter(values).items() if n > 1)
    if repeated:
        raise CliError(f"{label} {', '.join(map(show, repeated))} given more than once")
    return frozenset(values)


def _partition(args, name: str) -> Partition:
    """The partition given to --name; '' and '0' denote the empty one."""
    text = getattr(args, name).strip()
    empty = text in ("", "0", "()")
    return check_partition([] if empty else [_integer(x, f"--{name}") for x in text.split(",")])


def _integer(token: str, flag: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CliError(f"{flag}: {token.strip()!r} is not an integer") from None


def _reject(args, names, context: str) -> None:
    """CliError for the first of the flags names given: context ignores it."""
    for name in names:
        if getattr(args, name) is not None:
            raise CliError(f"--{name.replace('_', '-')} does not apply to {context}")


def _cache_dir(args) -> str | None:
    if getattr(args, "cache", None):
        return args.cache
    return os.environ.get("FOCKPATH_CACHE") or None


def _sign_sequence(args) -> SignSequence:
    return SignSequence(_parse_positions(args, "plus"), _parse_positions(args, "minus"))


def _move_record(move: MoveSpec):
    """The JSON record of a move with its polynomial and its well-nested
    collections; the collections are enumerated once."""
    collections = decomposition_paths(move)
    poly = norm_polynomial(collections)
    record = {
        "lambda": list(move.target),
        "mu": list(move.lam),
        "e": move.e,
        "r": move.r,
        "A": sorted(move.added),
        "B": sorted(move.removed),
        "poly": poly.to_json(),
        "paths": len(collections),
    }
    return record, poly, collections


# -- decomp -----------------------------------------------------------------


def cmd_decomp(args) -> int:
    if args.json:
        _reject(args, ("show_paths",), "decomp --json")
    col = _partition(args, "col")
    if args.row is not None:
        _reject(args, ("r", "add", "remove"), "decomp --row")
        row = _partition(args, "row")
        if sum(row) != sum(col):
            raise CliError(f"|{format_partition(row)}| != |{format_partition(col)}|")
        move = detect_move(col, row, args.e)
        if move is None:
            raise CliError(
                "not covered by closed formula: the diagram difference is not a "
                "single-residue move"
            )
    else:
        if args.r is None:
            raise CliError("need either --row or --r/--add/--remove")
        move = MoveSpec(
            col, args.e, args.r, _parse_positions(args, "add"), _parse_positions(args, "remove")
        )
    record, poly, collections = _move_record(move)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"d[{format_partition(move.target)}, {format_partition(col)}](v) = {poly}")
        print(f"well-nested collections: {len(collections)}")
        if args.show_paths:
            for i, coll in enumerate(collections):
                print(f"-- collection {i} (norm {coll.norm})")
                for a, b, path in coll.entries:
                    label = f"window ({a},{b})"
                    if path.degenerate:
                        print(f"{label}: self-paired")
                    else:
                        print(f"{label}:")
                        drawing = render_ascii(path, overlay=True)
                        print(drawing if drawing else "(empty)")
    return 0


# -- moves --------------------------------------------------------------------


def cmd_moves(args) -> int:
    lam = _partition(args, "lam")
    residues = [args.r] if args.r is not None else list(range(check_e(args.e)))
    records = [
        _move_record(move)
        for r in residues
        for move in admissible_moves(lam, args.e, r)
        if not move.is_identity
    ]
    if args.json:
        print(json.dumps([rec for rec, _, _ in records], sort_keys=True))
    else:
        if not records:
            print("no moves")
        for rec, poly, _ in records:
            target = format_partition(tuple(rec["lambda"]))
            print(f"r={rec['r']} add={rec['A']} remove={rec['B']} -> {target}: {poly}")
    return 0


# -- paths --------------------------------------------------------------------


def cmd_paths(args) -> int:
    t = _sign_sequence(args)
    if args.add is not None or args.remove is not None:
        colls = well_nested_collections(t, _parse_positions(args, "add"), _parse_positions(args, "remove"))
        records = [
            {
                "norm": c.norm,
                "windows": [
                    {"opener": a, "closer": b, "flattened": sorted(map(list, p.flattened))}
                    for a, b, p in c.entries
                ],
            }
            for c in colls
        ]
        lines = [f"{len(colls)} well-nested collections"]
        lines += [f"norm {rec['norm']}: {rec['windows']}" for rec in records]
    else:
        paths = latticed_paths(t)
        records = [{"norm": p.norm, "flattened": sorted(map(list, p.flattened))} for p in paths]
        lines = [f"{len(paths)} latticed paths"]
        lines += [f"norm {rec['norm']}: flattened {rec['flattened']}" for rec in records]
    print(json.dumps(records, sort_keys=True) if args.json else "\n".join(lines))
    return 0


# -- oracle --------------------------------------------------------------------


def cmd_oracle(args) -> int:
    if args.n is not None:
        _reject(args, ("mu", "lam"), "oracle --n")
        directory = _cache_dir(args)
        if directory is None:
            raise CliError("--n needs a cache directory (--cache or FOCKPATH_CACHE)")
        status = cache_roundtrip(directory, args.e, args.n)
        print(
            json.dumps(status)
            if args.json
            else f"wrote {status['entries']} entries to {status['written']}"
        )
        return 0
    oracle = get_oracle(args.e, _cache_dir(args))
    if args.mu is None:
        raise CliError("need --mu (or --n to build a cache level)")
    mu = _partition(args, "mu")
    element = oracle.element(mu)
    if args.lam is not None:
        lam = _partition(args, "lam")
        poly = oracle.coefficient(lam, mu)
        if args.json:
            print(json.dumps({"lambda": list(lam), "mu": list(mu), "poly": poly.to_json()}))
        else:
            print(f"d[{format_partition(lam)}, {format_partition(mu)}](v) = {poly}")
        return 0
    if args.json:
        print(json.dumps(element.to_json(), sort_keys=True))
    else:
        for p, c in element.vector.items():
            print(f"{format_partition(p)}: {c}")
    return 0


# -- verify ---------------------------------------------------------------------


# The verify flags, in the order a stray one is named, and the config field
# each sets; --e and --max-n together set the budgets.
_SWEEP_FLAGS = {"max_positions": "max_positions", "samples": "samples", "seed": "seed",
                "report": "report_path", "e": "budgets", "max_n": "budgets", "cache": "cache_dir"}


def cmd_verify(args) -> int:
    sweep = sweeps.SWEEPS[args.kind]
    cfg = sweep.acceptance
    fields = {f.name for f in dataclasses.fields(cfg)}
    _reject(args, [f for f, name in _SWEEP_FLAGS.items() if name not in fields], f"verify {args.kind}")
    # the given flags; the other fields keep the acceptance config's values
    given = {name: getattr(args, f) for f, name in _SWEEP_FLAGS.items() if getattr(args, f) is not None}
    if "budgets" in fields:
        given["budgets"] = _budgets(args, cfg.budgets)
    if "cache_dir" in fields:
        given["cache_dir"] = _cache_dir(args)
    report = sweep.run(dataclasses.replace(cfg, **given))
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(f"{report.kind}: checked {report.checked}, failures {len(report.failures)}")
        for note, value in report.notes.items():
            if note != "construction_failures":
                print(f"  {note}: {value}")
        for failure in report.failures:
            print(f"  FAIL {json.dumps(failure, sort_keys=True)}")
    return 0 if report.ok else VERIFY_ERROR


def _budgets(args, default):
    """(e, max_n) budgets: the given --e values in order (else the default
    moduli), each with --max-n if given, else its default budget (8 for a
    modulus without one).  A modulus given twice would sweep its instances
    twice."""
    defaults = dict(default)
    moduli = tuple(args.e or defaults)
    _once(moduli, "--e")
    return tuple((e, args.max_n if args.max_n is not None else defaults.get(e, 8)) for e in moduli)


# -- render ------------------------------------------------------------------


def cmd_render(args) -> int:
    if args.format == "svg":
        _reject(args, ("overlay",), "render --format svg")
    t = _sign_sequence(args)
    given = []
    for chunk in args.flatten.split(",") if args.flatten else ():
        u, colon, w = chunk.partition(":")
        if not colon:
            raise CliError(f"--flatten: {chunk.strip()!r} is not an opener:closer pair")
        given.append((_integer(u, "--flatten"), _integer(w, "--flatten")))
    flattened = _once(given, "--flatten:", lambda pair: f"{pair[0]}:{pair[1]}")
    # the window's pairs in ranks, by their pair of positions
    at = t.positions
    pairs = window_pairs(t.word, 0, len(at) + 1)
    opener = {(at[u - 1], at[w - 1]): u for u, w in pairs.items()}
    if not flattened <= opener.keys():
        raise CliError(f"--flatten must name matched pairs of the window; pairs are {sorted(opener)}")
    inner = standing_pairs(pairs, sum(1 << opener[p] for p in flattened))
    if inner:
        listed = ",".join(f"{at[u - 1]}:{at[w - 1]}" for u, w in sorted(inner))
        raise CliError(f"--flatten: the pairs {listed} inside a flattened pair must be flattened too")
    path = LatticedPath(t, flattened)
    if args.format == "ascii":
        text = render_ascii(path, overlay=bool(args.overlay))
    else:  # svg; argparse restricts the formats
        text = render_svg([path])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# -- wiring -------------------------------------------------------------------


def _count(text: str) -> int:
    """A non-negative int, for the sweep budgets."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockpath",
        description="Decomposition polynomials from sign sequences and latticed paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decomp", help="decomposition polynomial of a single move")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--col", required=True, help="base partition (column label)")
    p.add_argument("--row", help="target partition (row label)")
    p.add_argument("--r", type=int, help="residue of an explicit move")
    p.add_argument("--add", help="comma-separated indent columns")
    p.add_argument("--remove", help="comma-separated removable columns")
    p.add_argument("--json", action="store_true")
    p.add_argument("--show-paths", action="store_true", default=None)
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("moves", help="all covered moves from a partition")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("paths", help="latticed paths or well-nested collections")
    p.add_argument("--plus", default="")
    p.add_argument("--minus", default="")
    p.add_argument("--add", help="added columns (openers)")
    p.add_argument("--remove", help="removed columns (closers)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("oracle", help="canonical-basis coefficients and cache")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--mu")
    p.add_argument("--lam")
    p.add_argument("--n", type=int, help="build and write one cache level")
    p.add_argument("--cache")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("kind", choices=list(sweeps.SWEEPS))
    p.add_argument("--e", type=int, action="append")
    p.add_argument("--max-n", type=_count)
    p.add_argument("--max-positions", type=_count)
    p.add_argument("--samples", type=_count)
    p.add_argument("--seed", type=int)
    p.add_argument("--cache")
    p.add_argument("--report", help="write one JSON line per bijection instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a latticed path")
    p.add_argument("--plus", default="")
    p.add_argument("--minus", default="")
    p.add_argument("--flatten", help="pairs to flatten, e.g. 3:4,2:7")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out")
    p.add_argument("--overlay", action="store_true", default=None,
                   help="end the ASCII drawing with a line putting '.' under each flattened stroke")
    p.set_defaults(func=cmd_render)

    return parser


def exits(main):
    """main(argv) under the exit codes above, for fockpath and the scripts:
    argparse's own code, else one error: line and 2 or 3 by the error."""
    @functools.wraps(main)
    def run(argv: list[str] | None = None) -> int:
        try:
            return main(argv)
        except SystemExit as exc:  # argparse has printed usage or help
            return USAGE_ERROR if exc.code not in (0, None) else 0
        except (ValueError, OSError) as exc:
            message, code = exc, USAGE_ERROR
        except RecursionError as exc:
            # the oracle recurses once per ladder of its label: out of scope
            message, code = f"input too large: {exc}", USAGE_ERROR
        except (UnitriangularityError, DivisibilityError) as exc:
            message, code = exc, INVARIANT_ERROR
        print(f"error: {message}", file=sys.stderr)
        return code
    return run


@exits
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
