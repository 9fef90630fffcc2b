"""Latticed paths over sign-sequence windows and well-nested collections.

A latticed path is the window's up/down path with a down-closed family of
matched stroke pairs flattened to horizontal segments: whenever a pair is
flattened, every pair nested strictly inside it is flattened too.  Its norm
is one plus the number of surviving diagonal strokes.

A well-nested collection assigns one latticed path to each pair of a
perfect matching; inner paths must never dip below outer ones when all
paths are anchored on the generic path of the ambient sequence.
Equivalently, every pair an inner path flattens is flattened by each path
enclosing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .signseq import PairingError, SignSequence, match_pairs

Pair = tuple[int, int]

UP, DOWN, FLAT = "up", "down", "flat"


@dataclass(frozen=True)
class LatticedPath:
    """A window together with its flattened pairs.

    ``degenerate`` marks the empty path attached to a self-paired position;
    it has no window, no strokes, and norm 0.  A genuine window with no
    interior positions instead carries the zero-step path of norm 1.
    """

    window: SignSequence
    flattened: frozenset[Pair] = frozenset()
    degenerate: bool = False

    @property
    def norm(self) -> int:
        if self.degenerate:
            return 0
        return 1 + len(self.window.positions) - 2 * len(self.flattened)

    def steps(self) -> tuple[tuple[int, str], ...]:
        flat_positions = {x for pair in self.flattened for x in pair}
        out = []
        for p in self.window.positions:
            if p in flat_positions:
                kind = FLAT
            elif p in self.window.plus:
                kind = UP
            else:
                kind = DOWN
            out.append((p, kind))
        return tuple(out)

    def down_positions(self) -> frozenset[int]:
        """Positions still carrying a down-stroke (the flattening-free minuses)."""
        flat_positions = {x for pair in self.flattened for x in pair}
        return frozenset(self.window.minus - flat_positions)

    @classmethod
    def empty(cls) -> "LatticedPath":
        return cls(SignSequence(frozenset(), frozenset()), frozenset(), degenerate=True)


def _nesting_forest(pairs: Iterable[Pair]) -> dict[Pair | None, list[Pair]]:
    """Children map of the nesting forest; key None lists the roots."""
    ordered = sorted(pairs)
    children: dict[Pair | None, list[Pair]] = {None: []}
    stack: list[Pair] = []
    for pair in ordered:
        while stack and not (stack[-1][0] < pair[0] and pair[1] < stack[-1][1]):
            stack.pop()
        parent = stack[-1] if stack else None
        children.setdefault(parent, []).append(pair)
        children.setdefault(pair, [])
        stack.append(pair)
    return children


# Path sets memoised per window.  Neighbouring moves and bijection instances
# share most of their windows; a window and its paths are frozen, so every
# caller may share one tuple.
_WINDOW_CACHE = 256


@lru_cache(maxsize=_WINDOW_CACHE)
def latticed_paths(window: SignSequence) -> tuple[LatticedPath, ...]:
    """All latticed paths of the window.

    These are exactly the down-closed sets of the window matching's pairs;
    each such set is a union of full subtrees of the nesting forest, chosen
    by an antichain of subtree roots.  The generic path (nothing flattened)
    always appears first.

    The forest is walked children first with an explicit stack, so a window
    nested thousands of pairs deep needs no recursion.
    """
    children = _nesting_forest(window.matching().pairs)
    preorder: list[Pair] = []
    stack = list(children[None])
    while stack:
        pair = stack.pop()
        preorder.append(pair)
        stack.extend(children[pair])
    # options[pair]: the down-closed sets inside pair's subtree
    options: dict[Pair, list[frozenset[Pair]]] = {}
    subtree: dict[Pair, frozenset[Pair]] = {}
    for pair in reversed(preorder):
        kids = children[pair]
        subtree[pair] = frozenset({pair}).union(*(subtree[kid] for kid in kids))
        options[pair] = _unions([options.pop(kid) for kid in kids]) + [subtree[pair]]
    choices = _unions([options.pop(root) for root in children[None]])
    paths = sorted(
        (LatticedPath(window, flat) for flat in set(choices)),
        key=lambda p: (-p.norm, sorted(p.flattened)),
    )
    return tuple(paths)


def _unions(option_lists: list[list[frozenset[Pair]]]) -> list[frozenset[Pair]]:
    """Every union of one member of each list; [frozenset()] for none."""
    if not option_lists:
        return [frozenset()]
    # the first list is its own product with the empty choice: no copies,
    # so a chain of nested pairs costs quadratic, not cubic, time
    combos = option_lists[0]
    for opts in option_lists[1:]:
        combos = [s | t for s in combos for t in opts]
    return combos


def latticed_paths_by_flattening(window: SignSequence) -> frozenset[LatticedPath]:
    """Reference generator: closure of single ridge flattenings.

    Starting from the generic path, repeatedly find an up-stroke followed
    (across flats only) by a down-stroke at the same level and flatten that
    matched pair.  Slow but definitionally direct; used to validate
    latticed_paths.
    """
    m = window.matching()
    pair_set = set(m.pairs)
    generic = LatticedPath(window, frozenset())
    seen = {generic}
    frontier = [generic]
    while frontier:
        path = frontier.pop()
        steps = path.steps()
        for i, (p, kind) in enumerate(steps):
            if kind != UP:
                continue
            j = i + 1
            while j < len(steps) and steps[j][1] == FLAT:
                j += 1
            if j < len(steps) and steps[j][1] == DOWN:
                pair = (p, steps[j][0])
                if pair not in pair_set:
                    raise AssertionError(f"ridge {pair} is not a matched pair of the window")
                new = LatticedPath(window, path.flattened | {pair})
                if new not in seen:
                    seen.add(new)
                    frontier.append(new)
    return frozenset(seen)


# -- absolute embedding -------------------------------------------------


def ambient_heights(t: SignSequence) -> tuple[dict[int, int], list[int]]:
    """Rank of each position (1-based) and generic heights after each stroke.

    heights[k] is the level of the generic path after its first k strokes;
    heights[0] = 0.
    """
    return {p: k for k, p in enumerate(t.positions, start=1)}, list(t.prefix_heights)


def path_profile(
    t: SignSequence, pair: Pair, path: LatticedPath
) -> dict[int, int]:
    """Absolute heights of a window path anchored on the ambient generic path.

    Keys are grid abscissas in ambient rank units, from the end of the
    opener's stroke to the start of the closer's stroke.  Flattening a pair
    lowers exactly the grid points strictly inside it, so both endpoints
    always sit on the ambient generic path.
    """
    heights = t.prefix_heights
    a, b = pair
    lo = t.rank(a)
    hi = t.rank(b) - 1
    flat = [(t.rank(u), t.rank(w)) for u, w in path.flattened]
    out = {}
    for x in range(lo, hi + 1):
        drop = sum(1 for (u, w) in flat if u <= x < w)
        out[x] = heights[x] - drop
    return out


@dataclass(frozen=True)
class WellNestedCollection:
    """One latticed path per matched pair, inner paths never below outer ones.

    ``entries`` holds (opener, closer, path) sorted by opener; self-paired
    openers carry the degenerate empty path.
    """

    base: SignSequence
    entries: tuple[tuple[int, int, LatticedPath], ...]

    @property
    def norm(self) -> int:
        return sum(path.norm for _, _, path in self.entries)

    def path_of(self, opener: int) -> LatticedPath:
        for a, _, path in self.entries:
            if a == opener:
                return path
        raise KeyError(opener)


def make_collection(
    base: SignSequence, entries: Iterable[tuple[int, int, LatticedPath]]
) -> WellNestedCollection:
    return WellNestedCollection(base=base, entries=tuple(sorted(entries)))


def nested_pair_relations(pairs: Iterable[Pair]) -> list[tuple[Pair, Pair]]:
    """(outer, inner) for every strictly nested pair of genuine pairs."""
    real = [p for p in pairs if p[0] != p[1]]
    out = []
    for outer in real:
        for inner in real:
            if outer[0] < inner[0] and inner[1] < outer[1]:
                out.append((outer, inner))
    return out


def is_well_nested(
    t: SignSequence, entries: Iterable[tuple[int, int, LatticedPath]]
) -> bool:
    """Check the nesting condition of a candidate collection against t."""
    entry_list = list(entries)
    profiles = {
        (a, b): path_profile(t, (a, b), path) for a, b, path in entry_list if a != b
    }
    pair_list = [(a, b) for a, b, _ in entry_list]
    for outer, inner in nested_pair_relations(pair_list):
        po, pi = profiles[outer], profiles[inner]
        for x, h in pi.items():
            if h < po[x]:
                return False
    return True


def well_nested_collections(
    t: SignSequence, openers: Iterable[int], closers: Iterable[int]
) -> tuple[WellNestedCollection, ...]:
    """All well-nested collections for the matching of openers to closers.

    Requires a perfect matching (self-pairing of common elements allowed),
    with proper openers among t's minus positions and proper closers among
    t's plus positions.  Exhaustive product of the per-window path sets in
    pair order, filtered by the nesting condition on the parent/child edges
    of the nesting forest; the all-generic collection is always a member.

    The nesting condition is tested as F_inner <= F_outer on flattened sets
    (``is_well_nested`` keeps the height test).  Why they agree: bracket
    matching is local, so an inner window's pairs are pairs of the outer
    window.  The pairs covering a grid point x form a chain under nesting,
    and a down-closed flattening lowers x by an innermost stretch of it; so
    inner height >= outer height at x means the inner stretch lies inside
    the outer one.  Each inner pair covers its own opener's rank, so that
    holds at every x exactly when F_inner <= F_outer.
    """
    a = frozenset(openers)
    b = frozenset(closers)
    bad_openers = sorted((a - b) - t.minus)
    bad_closers = sorted((b - a) - t.plus)
    if bad_openers or bad_closers:
        problems = []
        if bad_openers:
            problems.append(f"openers {bad_openers} are not minus positions")
        if bad_closers:
            problems.append(f"closers {bad_closers} are not plus positions")
        raise PairingError(" and ".join(problems))
    m = match_pairs(a, b)
    if m.unpaired_openers or m.unpaired_closers:
        raise PairingError(
            f"matching of {sorted(a)} to {sorted(b)} is not perfect: "
            f"unpaired {sorted(m.unpaired_openers | m.unpaired_closers)}"
        )
    pairs = m.all_pairs()
    per_pair = [
        [(u, w, LatticedPath.empty())] if u == w
        else [(u, w, p) for p in latticed_paths(t.between(u, w))]
        for u, w in pairs
    ]
    index = {pair: k for k, pair in enumerate(pairs)}
    # Only parent/child edges of the nesting forest: inclusion of flattened
    # sets is transitive, so F_child <= F_parent on every edge gives
    # F_inner <= F_outer for every nested pair (the outer one is an ancestor).
    forest = _nesting_forest(p for p in pairs if p[0] != p[1])
    relations = [
        (index[parent], index[child])
        for parent, kids in forest.items() if parent is not None
        for child in kids
    ]
    return tuple(
        make_collection(t, combo)
        for combo in product(*per_pair)
        if all(combo[j][2].flattened <= combo[i][2].flattened for i, j in relations)
    )


def is_valid_path(path: LatticedPath) -> bool:
    """Flattened pairs are matched pairs of the window, down-closed."""
    if path.degenerate:
        return not path.window.positions and not path.flattened
    pairs = set(path.window.matching().pairs)
    if not path.flattened <= pairs:
        return False
    for u, w in path.flattened:
        for u2, w2 in pairs:
            if u < u2 and w2 < w and (u2, w2) not in path.flattened:
                return False
    return True


# -- rendering ------------------------------------------------------------


def _char_cells(path: LatticedPath) -> Iterator[tuple[int, int, str]]:
    """(column, band, char) triples; band b covers heights [b, b+1)."""
    h = 0
    for col, (p, kind) in enumerate(path.steps()):
        if kind == UP:
            yield col, h, "/"
            h += 1
        elif kind == DOWN:
            h -= 1
            yield col, h, "\\"
        else:
            yield col, h, "_"


def render_ascii(path: LatticedPath, overlay: bool = False) -> str:
    """Deterministic ASCII drawing; '.' marks the generic path where the
    rendered one was flattened, when overlay is requested."""
    cells = {(c, b): ch for c, b, ch in _char_cells(path)}
    if overlay and path.flattened:
        generic = LatticedPath(path.window, frozenset())
        for c, b, ch in _char_cells(generic):
            if (c, b) not in cells:
                cells[(c, b)] = "."
    if not cells:
        return ""
    cols = max(c for c, _ in cells) + 1
    bands = sorted({b for _, b in cells})
    lines = []
    for band in range(bands[-1], bands[0] - 1, -1):
        lines.append("".join(cells.get((c, band), " ") for c in range(cols)).rstrip())
    return "\n".join(lines)


def render_svg(paths: Iterable[LatticedPath], scale: int = 20) -> str:
    """One polyline per path on a unit-square grid, origin at each path's
    left endpoint."""
    polylines = []
    max_x = 1
    min_y = max_y = 0
    for path in paths:
        pts = [(0, 0)]
        h = 0
        for i, (_, kind) in enumerate(path.steps(), start=1):
            if kind == UP:
                h += 1
            elif kind == DOWN:
                h -= 1
            pts.append((i, h))
            min_y = min(min_y, h)
            max_y = max(max_y, h)
        max_x = max(max_x, len(pts) - 1)
        polylines.append(pts)
    width = (max_x + 2) * scale
    height = (max_y - min_y + 2) * scale
    top = max_y + 1
    body = []
    for pts in polylines:
        coords = " ".join(f"{(x + 1) * scale},{(top - y) * scale}" for x, y in pts)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="2"/>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        + "".join(body)
        + "</svg>"
    )
