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

A window is a rank slice of its sequence: ``SignSequence.restrict`` hands
it its positions and sign word as slices.  Its paths depend only on that
word, so they are tabulated once per word as (bitmask of flattened opener
ranks, norm) entries.  ``latticed_paths`` reads the window's pairs off the
word (``window_pairs``) and builds one path per table entry, norm included.

One enumerator, ``_nested_choices``, serves the path tables and both
collection enumerators.  It takes one option list per pair of a
``signseq.bracket_pairs`` scan, parents first, and extends each prefix by
the options that sit inside the parent's chosen one.  A path table chooses
flattened or standing per pair (a pair stands only where its parent
stands); a collection chooses one path per pair (a child flattens only what
its parent flattens): ``well_nested_collections`` as LatticedPath objects,
``mask_collections``, for the explicit bijection, as (opener rank, closer
rank, mask) entries.  ``mask_norms`` counts collections by norm with a
dynamic programme over the nesting forest, building nothing, and
``collection_norms`` is ``mask_norms`` behind the public argument check.
``masks_well_nested`` and ``is_valid_mask`` check rank masks, and the object
checks ``is_well_nested`` and ``is_valid_path`` run them on masks read
through ``SignSequence.ranks`` (``rank_entries``).  ``masks_well_nested``
is the reference height test: it walks the nesting forest once, taking
the entries by opener, and compares each entry's heights (``path_profile``)
with its innermost enclosing entry's only, as heights rise inwards along a
chain of nested paths; entries that cross or share an end, which no
collection has, raise ValueError.  ``_path_table`` builds down-closed
masks by the parent rule, and ``standing_pairs`` is the one check of that
rule, run by ``is_valid_mask`` and ``fockpath render``.  Both
renderers draw ``path_profile`` on the path's own window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, pairwise
from typing import Iterable

from .signseq import PairingError, SignSequence, bracket_pairs

Pair = tuple[int, int]

UP, DOWN, FLAT = "up", "down", "flat"


@dataclass(frozen=True)
class LatticedPath:
    """A window together with its flattened pairs.

    ``degenerate`` marks the empty path attached to a self-paired position;
    it has no window, no strokes, and norm 0.  A genuine window with no
    interior positions instead carries the zero-step path of norm 1.

    ``norm`` is a cached view: ``latticed_paths`` fills it from the word's
    path table, and any other path computes it on first read.
    """

    window: SignSequence
    flattened: frozenset[Pair] = frozenset()
    degenerate: bool = False

    @cached_property
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
        return frozenset(p for p, kind in self.steps() if kind == DOWN)

    @classmethod
    def empty(cls) -> "LatticedPath":
        return cls(SignSequence(frozenset(), frozenset()), frozenset(), degenerate=True)


# The path of every self-paired position; frozen, so collections share it.
_EMPTY = LatticedPath.empty()


# Path tables memoised per sign word.  A window's latticed paths depend only
# on the order type of its signs, and far fewer words than windows recur: on
# wide partitions one word stands for two windows or more.
_WORD_CACHE = 256


@lru_cache(maxsize=_WORD_CACHE)
def _path_table(word: tuple[bool, ...]) -> tuple[tuple[int, int], ...]:
    """(mask, norm) of every down-closed flattening of the word's matching.

    Word entries are True for plus (an up-stroke); bit i of a mask is set
    when the pair opened at index i is flattened, and the norm is one plus
    the number of surviving strokes.  The order is that of latticed_paths:
    norm descending, then the flattened openers' sorted indices.

    A flattening is down-closed when each pair is left standing only where
    its parent stands, so the masks are the nested choices of bit or 0 per
    pair, summed as ints: a chain of nested pairs costs quadratic time.
    """
    ups = {i for i, up in enumerate(word) if up}
    pairs = bracket_pairs(ups, {i for i, up in enumerate(word) if not up})[0]
    bits = [1 << u for u, _, _ in pairs]
    masks = _nested_choices(pairs, [(bit, 0) for bit in bits],
                            lambda bit, mask, k: bit or not mask & bits[k], 0)
    # norm descending, then the flattened openers' sorted indices: of two
    # masks, the one holding the lowest bit they differ in comes first, so
    # its bits read from the lowest are the larger string
    masks.sort(key=lambda mask: (-mask.bit_count(), bin(mask)[::-1]), reverse=True)
    return tuple((mask, len(word) + 1 - 2 * mask.bit_count()) for mask in masks)


def _nested_choices(pairs: list[list[int]], options: list, inside, empty=()) -> list:
    """Every choice of one option per pair of a bracket_pairs scan in which
    each genuine child's option sits inside its parent's, in product order.

    A choice is the sum of its options (1-tuples make tuples, distinct bits
    make masks).  The scan lists parents before their children, so a prefix
    holds the parent's option when a child is reached; the prefix is
    extended by the child's options that pass inside(option, prefix,
    parent), and a prefix no option passes is cut at once.
    """
    choices = [empty]
    for (_, _, parent), opts in zip(pairs, options):
        if parent < 0:
            choices = [c + o for c in choices for o in opts]
        else:
            choices = [c + o for c in choices for o in opts if inside(o, c, parent)]
    return choices


# Path sets memoised per window.  Neighbouring moves and bijection instances
# share most of their windows; a window and its paths are frozen, so every
# caller may share one tuple.
_WINDOW_CACHE = 256


@lru_cache(maxsize=_WINDOW_CACHE)
def latticed_paths(window: SignSequence) -> tuple[LatticedPath, ...]:
    """All latticed paths of the window: one per down-closed set of the
    window matching's pairs, read off the window's sign-word table, norms
    included.  The generic path (nothing flattened) always appears first."""
    positions, word = window.positions, window.word
    pairs = window_pairs(word, 0, len(word) + 1)
    # (mask bit, pair of positions) by opener; window_pairs counts ranks
    # from 1, mask bits from 0
    bits = [
        (u - 1, (positions[u - 1], positions[w - 1])) for u, w in sorted(pairs.items())
    ]
    out = []
    for mask, norm in _path_table(word):
        path = LatticedPath(window, frozenset([pair for i, pair in bits if mask >> i & 1]))
        path.__dict__["norm"] = norm
        out.append(path)
    return tuple(out)


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


def path_profile(
    word: tuple[bool, ...], heights: list[int], x: int, y: int, mask: int
) -> list[int]:
    """Absolute heights of a window path anchored on the ambient generic path.

    The window is the strokes of word strictly between ranks x and y, the
    heights are the word's generic prefix heights, and mask holds the ranks
    of the flattened pairs' openers.  Entry i is the height at grid point
    x + i (after the stroke of rank x + i), from the end of the opener's
    stroke to the start of the closer's stroke.  Flattening a pair lowers
    exactly the grid points strictly inside it, so both endpoints always sit
    on the ambient generic path.
    """
    out = [heights[x]]
    # per up-stroke of the window still open: 1 when its pair is flattened
    flat: list[int] = []
    drop = 0
    for r in range(x + 1, y):
        if word[r - 1]:
            flat.append(mask >> r & 1)
            drop += flat[-1]
        elif flat:
            drop -= flat.pop()
        out.append(heights[r] - drop)
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


def rank_entries(t: SignSequence, entries: Iterable[tuple[int, int, LatticedPath]]) -> tuple:
    """(opener, closer, path) entries as (opener rank, closer rank, mask) in
    t's ranks, the mask holding the ranks of the openers the path flattens."""
    rank = t.ranks
    return tuple((rank[x], rank[y], _mask(rank, path)) for x, y, path in entries)


def _mask(rank, path: LatticedPath) -> int:
    return sum(1 << rank[u] for u, _ in path.flattened)


def is_well_nested(t: SignSequence, entries: Iterable[tuple[int, int, LatticedPath]]) -> bool:
    """The nesting condition of a candidate collection against t: its genuine
    entries, in ranks, are masks_well_nested (a self-pair need not be in t).
    ValueError when two genuine entries cross or share an end."""
    return masks_well_nested(t.word, rank_entries(t, [e for e in entries if e[0] != e[1]]))


def masks_well_nested(
    word: tuple[bool, ...], entries: Iterable[tuple[int, int, int]]
) -> bool:
    """The nesting condition on (opener rank, closer rank, mask) entries of a
    candidate collection in word: every inner path's heights are at least
    the outer path's on the grid points they share (ranks as in
    path_profile).  Genuine entries that cross or share an end, which no
    collection has, raise ValueError; self-pairs are skipped.

    One walk by opener compares each genuine entry's heights with its
    innermost enclosing entry's only: heights rise inwards along a chain of
    nested paths, so that covers every nested pair.  An entry's heights are
    worked out when a comparison first needs them, once.
    """
    genuine = sorted(e for e in entries if e[0] != e[1])
    if len(genuine) < 2:
        return True
    heights = list(accumulate((1 if up else -1 for up in word), initial=0))
    profiles: dict[int, list[int]] = {}  # by opener; no two entries share one

    def profile(x: int, y: int, mask: int) -> list[int]:
        if x not in profiles:
            profiles[x] = path_profile(word, heights, x, y, mask)
        return profiles[x]

    well = True
    around: list[tuple[int, int, int]] = []  # enclosing entries, outermost first
    for x, y, mask in genuine:
        while around and around[-1][1] < x:
            around.pop()
        if around and around[-1][1] <= y:
            raise ValueError(f"entries {around[-1][:2]} and {(x, y)} cross or share an end")
        if well and around:
            ox = around[-1][0]
            outer = profile(*around[-1])
            well = all(h >= outer[x - ox + g] for g, h in enumerate(profile(x, y, mask)))
        around.append((x, y, mask))
    return well


def well_nested_collections(
    t: SignSequence, openers: Iterable[int], closers: Iterable[int]
) -> tuple[WellNestedCollection, ...]:
    """All well-nested collections for the matching of openers to closers.

    Requires a perfect matching (self-pairing of common elements allowed),
    with proper openers among t's minus positions and proper closers among
    t's plus positions.  The collections are the nested choices of one
    window path per pair, in product order of the per-window path sets; the
    all-generic collection is always a member.

    The nesting condition is tested as F_inner <= F_outer on flattened sets
    (``is_well_nested`` keeps the height test).  Why they agree: bracket
    matching is local, so an inner window's pairs are pairs of the outer
    window.  The pairs covering a grid point x form a chain under nesting,
    and a down-closed flattening lowers x by an innermost stretch of it; so
    inner height >= outer height at x means the inner stretch lies inside
    the outer one.  Each inner pair covers its own opener's rank, so that
    holds at every x exactly when F_inner <= F_outer.
    """
    pairs = _perfect_matching(t, openers, closers)
    options = [
        [((u, w, _EMPTY),)] if u == w
        else [((u, w, p),) for p in latticed_paths(t.restrict(u, w))]
        for u, w, _ in pairs
    ]
    # inclusion of flattened sets is transitive, so testing each child
    # against its parent gives F_inner <= F_outer for every nested pair
    choices = _nested_choices(pairs, options, lambda o, c, k: o[0][2].flattened <= c[k][2].flattened)
    return tuple(WellNestedCollection(t, entries) for entries in choices)


def _perfect_matching(
    t: SignSequence, openers: Iterable[int], closers: Iterable[int]
) -> list[list[int]]:
    """The bracket_pairs scan of openers to closers, its pairs with their
    parents, once the matching is known to be perfect (self-pairing of
    common elements allowed) with proper openers among t's minus positions
    and proper closers among its plus positions; PairingError otherwise."""
    a = frozenset(openers)
    b = frozenset(closers)
    if not ((a - b) <= t.minus and (b - a) <= t.plus):
        problems = []
        bad_openers = sorted((a - b) - t.minus)
        bad_closers = sorted((b - a) - t.plus)
        if bad_openers:
            problems.append(f"openers {bad_openers} are not minus positions")
        if bad_closers:
            problems.append(f"closers {bad_closers} are not plus positions")
        raise PairingError(" and ".join(problems))
    pairs, lone_openers, lone_closers = bracket_pairs(a, b)
    if lone_openers or lone_closers:
        raise PairingError(
            f"matching of {sorted(a)} to {sorted(b)} is not perfect: "
            f"unpaired {sorted(lone_openers + lone_closers)}"
        )
    return pairs


def collection_norms(
    t: SignSequence, openers: Iterable[int], closers: Iterable[int]
) -> Counter[int]:
    """Norm -> number of well-nested collections for the matching of openers
    to closers, counted without building one.

    Same preconditions and errors as well_nested_collections; the count is
    mask_norms on the scanned pairs in ranks (a self-pair, which mask_norms
    skips, need not be a position of t).
    """
    rank = t.ranks
    return Counter(mask_norms(t.word, [
        [u, w, parent] if u == w else [rank[u], rank[w], parent]
        for u, w, parent in _perfect_matching(t, openers, closers)
    ]))


# Norm -> count maps are summed and multiplied as plain dicts: the DP makes
# a few of these per path option, and LaurentPolynomial's normalising
# constructor would cost more than the arithmetic.


def _add(terms: Iterable[dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for term in terms:
        for norm, count in term.items():
            out[norm] = out.get(norm, 0) + count
    return out


def _times(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in f.items():
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def is_valid_path(path: LatticedPath) -> bool:
    """Flattened pairs are matched pairs of the window, down-closed
    (is_valid_mask on the window's word and ranks)."""
    window = path.window
    if path.degenerate:
        return not window.positions and not path.flattened
    return path.flattened <= set(window.matching().pairs) and is_valid_mask(
        window.word, 0, len(window.word) + 1, _mask(window.ranks, path))


# -- paths as rank masks --------------------------------------------------
#
# Over a sign word (True for plus), the path of a pair (x, y) of ranks
# (counted from 1, as SignSequence.ranks does) is one int: bit u is set when
# the pair opened at rank u is flattened.  It is the table of the window's
# word shifted by the window's first rank, x + 1.


def window_pairs(word: tuple[bool, ...], lo: int, hi: int) -> dict[int, int]:
    """Bracket matching of the strokes strictly between ranks lo and hi:
    the closer of each matched opener, by opener."""
    pairs: dict[int, int] = {}
    stack: list[int] = []
    for r in range(lo + 1, hi):
        if word[r - 1]:
            stack.append(r)
        elif stack:
            pairs[stack.pop()] = r
    return pairs


def standing_pairs(pairs: dict[int, int], mask: int) -> list[Pair]:
    """The pairs of a window_pairs matching that mask leaves standing
    inside a pair it flattens; none when mask is down-closed."""
    flattened = [(u, w) for u, w in pairs.items() if mask >> u & 1]
    return [(u, w) for u, w in pairs.items()
            if not mask >> u & 1 and any(x < u and w < y for x, y in flattened)]


def is_valid_mask(word: tuple[bool, ...], lo: int, hi: int, mask: int) -> bool:
    """is_valid_path on ranks: mask flattens matched pairs of the window
    strictly between lo and hi, down-closed."""
    pairs = window_pairs(word, lo, hi)
    return mask == sum(1 << u for u in pairs if mask >> u & 1) and not standing_pairs(pairs, mask)


def mask_collections(
    word: tuple[bool, ...], pairs: list[list[int]]
) -> list[tuple[tuple[int, int, int], ...]]:
    """well_nested_collections on the ranks of word, in the same order: each
    collection is its (opener, closer, mask) entries sorted by opener, with
    mask 0 on a self-paired rank.

    pairs is the bracket_pairs scan of a perfect matching in ranks, with
    proper openers among word's minus ranks and proper closers among its
    plus ranks.
    """
    return _nested_choices(pairs, [
        [((u, w, 0),)] if u == w
        else [((u, w, mask << (u + 1)),) for mask, _ in _path_table(word[u:w - 1])]
        for u, w, _ in pairs
    ], lambda o, c, k: not o[0][2] & ~c[k][2])


def mask_norms(word: tuple[bool, ...], pairs: list[list[int]]) -> dict[int, int]:
    """collection_norms on the ranks of word, for the scanned pairs of
    mask_collections.

    A dynamic programme over the nesting forest, children first: each path
    of a pair weighs v^norm times, for each child, the sum over the child's
    paths that flatten nothing the parent's path leaves standing (mask
    inclusion, as bracket matching is local).  Self-pairs weigh v^0.
    """
    # below[k]: (span, paths) of each child of pair k counted so far (key
    # -1: the roots), with span the bits of the child's window and paths
    # (mask, norm -> count) counting every compatible choice inside the
    # child's subtree
    below: dict[int, list[tuple[int, list[tuple[int, dict[int, int]]]]]] = {}
    for k in range(len(pairs) - 1, -1, -1):
        u, w, parent = pairs[k]
        if u == w:
            continue
        kids = [(span, paths, {}) for span, paths in below.pop(k, ())]
        out = []
        for mask, norm in _path_table(word[u:w - 1]):
            mask <<= u + 1
            counts = {norm: 1}
            for span, paths, sums in kids:
                # the child's compatible paths depend on mask only inside
                # the child's window
                key = mask & span
                total = sums.get(key)
                if total is None:
                    total = sums[key] = _add(c for m, c in paths if not m & ~key)
                counts = _times(counts, total)
            out.append((mask, counts))
        below.setdefault(parent, []).append((((1 << (w - u - 1)) - 1) << (u + 1), out))
    counts = {0: 1}
    for _, paths in below.pop(-1, ()):
        counts = _times(counts, _add(c for _, c in paths))
    return counts


# -- rendering ------------------------------------------------------------


def _profile(path: LatticedPath) -> list[int]:
    """The path's height at each grid point, 0 at its left end: path_profile
    on the path's own window ([0] for the degenerate path)."""
    w = path.window
    return path_profile(w.word, w.prefix_heights, 0, len(w.word) + 1, _mask(w.ranks, path))


def render_ascii(path: LatticedPath, overlay: bool = False) -> str:
    """Deterministic ASCII drawing, one line per band b of heights [b, b+1);
    with overlay, a last line puts '.' under each flattened stroke."""
    strokes = list(pairwise(_profile(path)))
    cells = {(c, min(h, g)): "/" if g > h else "\\" if g < h else "_"
             for c, (h, g) in enumerate(strokes)}
    # a stroke shares a grid point with the next, so the bands are contiguous
    lines = ["".join(cells.get((c, band), " ") for c in range(len(strokes))).rstrip()
             for band in sorted({b for _, b in cells}, reverse=True)]
    if overlay and path.flattened:
        # the level strokes are the flattened ones; each '_' sits in the cell
        # of the '/' or '\\' it replaces, so the marks take a line of their own
        lines.append("".join("." if h == g else " " for h, g in strokes).rstrip())
    return "\n".join(lines)


_SVG_SCALE = 20  # pixels per grid unit


def render_svg(paths: Iterable[LatticedPath]) -> str:
    """One polyline per path on a unit-square grid, origin at each path's
    left endpoint."""
    polylines = [_profile(path) for path in paths]
    every = [h for heights in polylines for h in heights] or [0]
    min_y, max_y = min(every), max(every)
    max_x = max([1, *(len(heights) - 1 for heights in polylines)])
    width = (max_x + 2) * _SVG_SCALE
    height = (max_y - min_y + 2) * _SVG_SCALE
    top = max_y + 1
    body = []
    for heights in polylines:
        coords = " ".join(f"{(x + 1) * _SVG_SCALE},{(top - y) * _SVG_SCALE}"
                          for x, y in enumerate(heights))
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="2"/>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        + "".join(body)
        + "</svg>"
    )
