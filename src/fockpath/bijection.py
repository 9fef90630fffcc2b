"""The two index sets of the induction identity and the recursive
norm-preserving bijection between them.

For a sign sequence T with A among its minus positions, B among its plus
positions, |A| = |B| + 1 and A onto B:

* a left element is a completion column c (a non-removed plus, or a member
  of A pairing with itself) together with a well-nested collection for the
  matching of A to B + c;
* a right element is a valley d with A onto B + d, a marker d' that is d
  itself or an unpaired plus beyond it, and a well-nested collection for
  the matching of A to B + d in T with d flipped to plus.

Both index sets take their columns from one plan per instance, a single
pass over the sign word and the ranks of A and B that the instance check
returns (``_check_instance``, ``_plan``).  index_set_norms is the one
count of both: it returns the left and the right norm multisets together,
on one plan, on ranks (mask_norms).

The two norm multisets always agree; build_bijection produces an explicit
norm-preserving bijection by recursion.  Each step makes one reduction
choice, in ``_build``: the pair (a0, b0) of A below B with the fewest plus
positions inside, stripped when it holds none, else split along its last
plus.  The recursion ends at one added column with nothing removed, where
each left element has one of two images: its truncation when its column
is an unpaired plus, else its extension to the first valley at or beyond
its column (the added column's own element extends its empty path).
Every structural assumption of the construction is asserted at runtime,
and any failure raises ConstructionError tagged with the corner that broke
and reported against the shape whose step failed, where ``_build`` places
it, so callers can fall back to the multiset check.

The recursion runs in rank space.  An instance is its shape: T's sign
word, held as the sign sequence on ranks 1..k, and the ranks of A and B.
An element is a tuple of ints: its column rank, or its valley and marker
ranks, then one (opener, closer, mask) entry per pair, the mask holding the
ranks of the openers its path flattens, then its norm.  Each shape's map is
built once, verified total, injective, onto and norm-preserving against
the rank-space index sets, and kept in a bounded memo keyed on the shape,
so the sub-instances the recursion reaches again, and every instance of the
same order type, are lookups.  build_bijection reads the map of T's shape
and verifies it once more against the public left_elements and
right_elements, read in ranks by ``rank_entries``, whose objects it returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .latticepath import (
    WellNestedCollection,
    is_valid_mask,
    mask_collections,
    mask_norms,
    masks_well_nested,
    rank_entries,
    well_nested_collections,
    window_pairs,
)
from .signseq import SignSequence, bracket_pairs, onto, unpaired_plus, valley_set


class ConstructionError(RuntimeError):
    """The explicit bijection could not be built on this instance.

    ``corner`` names the construction step that failed.  The failure is
    reported against the shape whose step failed: ``_build`` places it on
    that shape (in ranks, so a failing sub-instance names the sub-shape),
    and build_bijection on the public instance when its own check fails.
    """

    def __init__(self, corner: str, detail: str):
        self.corner, self.instance = corner, None
        super().__init__(f"[{corner}] {detail}")

    def place(self, t: SignSequence, a, b) -> ConstructionError:
        """This error, reported against (t, A, B) unless an inner build
        already placed it on its own shape."""
        if self.instance is None:
            self.instance = (t, frozenset(a), frozenset(b))
            self.args = (f"{self} (plus={sorted(t.plus)}, minus={sorted(t.minus)}, "
                         f"A={sorted(a)}, B={sorted(b)})",)
        return self


@dataclass(frozen=True)
class LeftElement:
    position: int
    collection: WellNestedCollection
    norm: int


@dataclass(frozen=True)
class RightElement:
    valley: int
    marker: int
    collection: WellNestedCollection
    norm: int


def _check_instance(
    t: SignSequence, a: frozenset[int], b: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """The ranks of A and B in t, once (t, A, B) is known to be an instance."""
    if not a <= t.minus:
        raise ValueError(f"A={sorted(a)} must consist of minus positions")
    if not b <= t.plus:
        raise ValueError(f"B={sorted(b)} must consist of plus positions")
    if len(a) != len(b) + 1:
        raise ValueError(f"need |A| = |B| + 1, got {len(a)} and {len(b)}")
    if not onto(a, b):
        raise ValueError(f"A={sorted(a)} is not onto B={sorted(b)}")
    rank = t.ranks
    return frozenset(rank[x] for x in a), frozenset(rank[y] for y in b)


def _plan(word: tuple[bool, ...], a: frozenset[int], b: frozenset[int]) -> tuple[list, list]:
    """The completion columns with their left shifts and the valleys with
    their (marker, right shift) lists, ascending, of the instance on ranks
    (a shift is an element's norm less its collection's).

    One pass from the right.  As A is onto B and |A| = |B| + 1, A is onto
    B + r exactly when no suffix beyond r holds more of A than of B, so the
    pass stops at the first rank that fails.  A valley is a minus rank, and
    an unpaired plus a plus rank, where the path is as low as anywhere after.
    """
    completions, valleys, unpaired = [], [], []
    # over the ranks beyond r: #B - #A, the generic path's rise, and the
    # largest rise from any of them (r is as low as they when rise >= top)
    beyond = rise = top = 0
    for r in range(len(word), 0, -1):
        if beyond < 0:
            break
        up = word[r - 1]
        if (up or r in a) and r not in b:
            completions.append((r, 2 * beyond - rise))
        if rise >= top:
            top = rise
            if up:
                unpaired.append((r, rise))
            else:
                markers = [(u, rise - 2 * ru) for u, ru in reversed(unpaired)]
                valleys.append((r, [(r, -rise)] + markers))
        beyond += (r in b) - (r in a)
        rise += 1 if up else -1
    return completions[::-1], valleys[::-1]


def left_elements(t: SignSequence, a, b) -> tuple[LeftElement, ...]:
    a, b = frozenset(a), frozenset(b)
    out = []
    for c, shift in _plan(t.word, *_check_instance(t, a, b))[0]:
        c = t.positions[c - 1]
        out.extend(
            LeftElement(position=c, collection=coll, norm=shift + coll.norm)
            for coll in well_nested_collections(t, a, b | {c})
        )
    return tuple(out)


def right_elements(t: SignSequence, a, b) -> tuple[RightElement, ...]:
    a, b = frozenset(a), frozenset(b)
    out = []
    for d, markers in _plan(t.word, *_check_instance(t, a, b))[1]:
        d = t.positions[d - 1]
        colls = well_nested_collections(t.shift_up(d), a, b | {d})
        out.extend(
            RightElement(valley=d, marker=t.positions[dp - 1], collection=coll,
                         norm=shift + coll.norm)
            for dp, shift in markers for coll in colls
        )
    return tuple(out)


def index_set_norms(t: SignSequence, a, b) -> tuple[Counter[int], Counter[int]]:
    """Norm -> number of left elements and of right elements, counted on one
    checked ranking and one plan without building the elements."""
    word, (a, b) = t.word, _check_instance(t, frozenset(a), frozenset(b))
    completions, valleys = _plan(word, a, b)
    left: Counter[int] = Counter()
    for c, shift in completions:
        for norm, count in mask_norms(word, bracket_pairs(a, b | {c})[0]).items():
            left[norm + shift] += count
    right: Counter[int] = Counter()
    for d, markers in valleys:
        counts = mask_norms(_shift_up(word, d), bracket_pairs(a, b | {d})[0])
        for _, shift in markers:
            for norm, count in counts.items():
                right[norm + shift] += count
    return left, right


def norm_multisets_match(t: SignSequence, a, b) -> bool:
    """Whether the left and right norm multisets coincide (the computational
    content of the identity; always true in every tested regime)."""
    left, right = index_set_norms(t, a, b)
    return left == right


# -- the explicit bijection ------------------------------------------------


def build_bijection(t: SignSequence, a, b) -> dict[LeftElement, RightElement]:
    """Explicit norm-preserving bijection from left to right elements.

    Raises ConstructionError when a proof-step assumption fails on the
    instance; the result is otherwise verified total, injective, onto and
    norm-preserving before being returned.
    """
    a, b = frozenset(a), frozenset(b)
    rank = t.ranks
    # an instance on 1..k is its own rank sequence, cached views and all
    ranked = t if t.positions == tuple(range(1, len(rank) + 1)) else _on_ranks(t.word)
    mapping = _build(ranked, *_check_instance(t, a, b))
    lefts = {
        (rank[el.position], rank_entries(t, el.collection.entries), el.norm): el
        for el in left_elements(t, a, b)
    }
    rights = {
        (rank[el.valley], rank[el.marker], rank_entries(t, el.collection.entries), el.norm): el
        for el in right_elements(t, a, b)
    }
    # the keys carry the public elements' norms, so matching them also
    # checks the rank-space norms
    try:
        _verify(mapping, lefts.keys(), rights.keys())
    except ConstructionError as exc:
        raise exc.place(t, a, b)
    return {lefts[el]: rights[img] for el, img in mapping.items()}


def _verify(mapping: dict, lefts, rights) -> None:
    """The map is total on the set lefts, injective, onto the set rights
    and keeps norms."""
    if mapping.keys() != lefts:
        raise ConstructionError("verify", "map domain differs from the left set")
    images = set(mapping.values())
    if len(images) != len(mapping):
        raise ConstructionError("verify", "map is not injective")
    if images != rights:
        raise ConstructionError("verify", "map image differs from the right set")
    for el, img in mapping.items():
        if el[-1] != img[-1]:
            raise ConstructionError("verify", f"norm {el[-1]} mapped to {img[-1]}")


def _on_ranks(word: tuple[bool, ...]) -> SignSequence:
    """The sign sequence of word on ranks 1..k."""
    return SignSequence(
        frozenset(r for r, up in enumerate(word, 1) if up),
        frozenset(r for r, up in enumerate(word, 1) if not up),
    )


# Rank-space maps memoised per shape.  The recursion asks for shapes the
# sweep has just built (a strip or split keeps the sign word), or built as
# a smaller instance (the split's reduced word), so a few dozen maps of
# ints catch most of the repeats: at up to 8 positions a 64-entry memo
# builds 11,066 shapes for 9,878 instances, and 1,024 entries would still
# build 10,549.
_SHAPE_CACHE = 64


@lru_cache(maxsize=_SHAPE_CACHE)
def _build(s: SignSequence, a: frozenset[int], b: frozenset[int]) -> MappingProxyType:
    """The explicit bijection of the shape (s on ranks 1..k), verified;
    read-only, as every caller shares it.  A failing step of this shape is
    reported against it.

    The one reduction choice: the pair (a0, b0) of A below B with the fewest
    plus positions inside is stripped when it holds none, else split."""
    word = s.word
    try:
        lefts, rights = _index_sets(word, a, b)
        if not b:
            mapping = _base_case(s, next(iter(a)), lefts)
        else:
            sizes = {(x, y): word[x:y - 1].count(True) for x in a for y in b if x < y}
            if not sizes:
                raise ConstructionError("split", "no opener below any removed column")
            m0 = min(sizes.values())
            corner = "split" if m0 else "strip"
            a0, b0 = _chosen_pair(a, [p for p, m in sizes.items() if m == m0])
            if word[a0:b0 - 1].count(True) != m0:
                raise ConstructionError(corner, "normalisation changed the minimal interior")
            if any(a0 < x < b0 for x in a | b):
                raise ConstructionError(corner, "chosen pair keeps A or B members inside")
            case = _case_split if m0 else _case_strip
            mapping = case(s, a, b, a0, b0, lefts, rights)
        _verify(mapping, set(lefts), set(rights))
    except ConstructionError as exc:
        raise exc.place(s, a, b)
    return MappingProxyType(mapping)


# -- rank-space elements ---------------------------------------------------


def _norm(entries) -> int:
    """Norm of a collection: each genuine window path has one plus its
    window's length in strokes, less two per flattened pair."""
    norm = 0
    for x, y, mask in entries:
        if x != y:
            norm += y - x - 2 * mask.bit_count()
    return norm


def _left(t: SignSequence, a, b, c: int, entries) -> tuple:
    # _plan's left shift, with #B - #A beyond c counted directly
    h = t.prefix_heights
    beyond = sum(1 for y in b if y > c) - sum(1 for x in a if x > c)
    return c, entries, 2 * beyond + h[c] - h[-1] + _norm(entries)


def _right(t: SignSequence, d: int, dp: int, entries) -> tuple:
    h = t.prefix_heights
    return d, dp, entries, 2 * h[dp] - h[d] - h[-1] + _norm(entries)


def _shift_up(word: tuple[bool, ...], d: int) -> tuple[bool, ...]:
    """The word with rank d flipped from minus to plus (SignSequence.shift_up)."""
    return word[:d - 1] + (True,) + word[d:]


def _index_sets(word: tuple[bool, ...], a: frozenset[int], b: frozenset[int]) -> tuple:
    """left_elements and right_elements in rank space."""
    completions, valleys = _plan(word, a, b)
    lefts = tuple(
        (c, entries, shift + _norm(entries))
        for c, shift in completions
        for entries in mask_collections(word, bracket_pairs(a, b | {c})[0])
    )
    rights = []
    for d, markers in valleys:
        colls = [
            (entries, _norm(entries))
            for entries in mask_collections(_shift_up(word, d), bracket_pairs(a, b | {d})[0])
        ]
        rights.extend(
            (d, dp, entries, shift + norm) for dp, shift in markers for entries, norm in colls
        )
    return lefts, tuple(rights)


# -- base case: a single added column --------------------------------------


def _base_case(t: SignSequence, a0: int, lefts) -> dict:
    """Each left element's image: its truncation when its column is an
    unpaired plus, else its extension (a0's own element extends its empty
    path, the self-pair)."""
    valleys = valley_set(t)
    unpaired = unpaired_plus(t)
    mapping = {}
    for el in lefts:
        c, entries, _ = el
        image = _truncation_image if c in unpaired else _extension_image
        mapping[el] = image(t, a0, c, _entry_by_opener(entries, a0)[2], valleys)
    return mapping


def _flattened(word, lo: int, hi: int, mask: int) -> dict[int, int]:
    """The flattened pairs of a window path, closer by opener."""
    return {u: w for u, w in window_pairs(word, lo, hi).items() if mask >> u & 1}


def _truncation_image(t, a0, c, gamma, valleys):
    """Unpaired completion column: cut the path at the last minus position
    not covered by a flattened pair; everything beyond it is forced."""
    flattened = _flattened(t.word, a0, c, gamma)
    covered = set()
    for u, w in flattened.items():
        covered.update(range(u, w + 1))
    candidates = [x for x in t.minus if x < c and x not in covered]
    if not candidates:
        raise ConstructionError("base-truncation", "no uncovered minus below the column")
    d = max(candidates)
    if d not in valleys:
        raise ConstructionError("base-truncation", f"cut position {d} is not a valley")
    kept = sum(1 << u for u, w in flattened.items() if w < d)
    if any(u < d <= w for u, w in flattened.items() if w >= d):
        raise ConstructionError("base-truncation", f"a flattened pair straddles {d}")
    if not is_valid_mask(t.word, a0, d, kept):
        raise ConstructionError("base-truncation", "cut path is not a latticed path")
    return _right(t, d, c, ((a0, d, kept),))


def _extension_image(t, a0, c, gamma, valleys):
    """Paired completion column or a0 itself: keep the column's stroke and
    descend to the first valley at or beyond it, flattening the whole
    stretch in between (a0 as its own valley keeps the self-pair)."""
    later = sorted(v for v in valleys if v >= c)
    if not later:
        raise ConstructionError("base-extension", "no valley beyond the paired column")
    d = later[0]
    wpairs = window_pairs(t.word, a0, d)
    if any(wpairs.get(u) != w for u, w in _flattened(t.word, a0, c, gamma).items()):
        raise ConstructionError(
            "base-extension", "existing flattenings are not pairs of the longer window"
        )
    extra = {u for u in wpairs if u > c}
    survivors = {x for x in range(c + 1, d) if t.word[x - 1]} - extra
    if survivors:
        raise ConstructionError(
            "base-descending", f"up-strokes {sorted(survivors)} survive between {c} and {d}"
        )
    mask = gamma | sum(1 << u for u in extra)
    if not is_valid_mask(t.word, a0, d, mask):
        raise ConstructionError("base-extension", "extended path is not a latticed path")
    return _right(t, d, d, ((a0, d, mask),))


# -- shared reduction steps ------------------------------------------------


def _entry_by_opener(entries, opener):
    for e in entries:
        if e[0] == opener:
            return e
    return None


def _entry_by_closer(entries, closer):
    for e in entries:
        if e[1] == closer and e[0] != e[1]:
            return e
    return None


def _chosen_pair(a, candidates) -> tuple[int, int]:
    """The smallest closer of the candidate pairs and its largest opener,
    moved in to the last member of A inside their window."""
    b0 = min(y for _, y in candidates)
    a0 = max(x for x, y in candidates if y == b0)
    return max((x for x in a if a0 < x < b0), default=a0), b0


def _reduce(elements, step, shift, corner) -> dict:
    """Every element mapped by step; each image's norm must exceed the
    element's by exactly shift."""
    out = {}
    for el in elements:
        image = step(el)
        if image[-1] - el[-1] != shift:
            raise ConstructionError(corner, f"norm shift {image[-1] - el[-1]} != {shift}")
        out[el] = image
    return out


def _assert_partition(parts, whole, corner):
    """The images of the reductions in parts are distinct and cover whole."""
    combined = [img for part in parts for img in part.values()]
    if len(set(combined)) != len(combined) or set(combined) != set(whole):
        raise ConstructionError(corner, "the reductions do not partition the index set")


def _checked(base, entries, openers, closers, corner, nested_corner=None):
    """The entries, sorted, once they are known to still pair openers with
    closers and to stay well-nested in the word base."""
    entries = tuple(sorted(entries))
    scanned = [(u, w) for u, w, _ in bracket_pairs(openers, closers)[0]]
    if scanned != [(x, y) for x, y, _ in entries]:
        raise ConstructionError(corner, "the windows no longer match openers to closers")
    if not masks_well_nested(base, entries):
        raise ConstructionError(nested_corner or corner, "the collection is not well-nested")
    return entries


def _reaim(base, entries, old, new, corner) -> list:
    """The entries with the window closing at old re-read in the word base
    as closing at new, keeping its flattened pairs; none of them may reach
    new."""
    carrier = _entry_by_closer(entries, old)
    if carrier is None:
        raise ConstructionError(corner, f"no window closes at {old}")
    x, _, mask = carrier
    if any(w >= new for w in _flattened(base, x, old, mask).values()):
        raise ConstructionError(corner, f"flattened pairs of the ({x},{old}) window reach past {new}")
    if not is_valid_mask(base, x, new, mask):
        raise ConstructionError(corner, f"re-aimed path ({x},{new}) is invalid")
    return [e for e in entries if e is not carrier] + [(x, new, mask)]


# -- strip case: some pair encloses no plus position ------------------------


def _case_strip(t: SignSequence, a, b, a0, b0, lefts, rights):
    word = t.word
    a2, b2 = a - {a0}, b - {b0}
    shift = -(1 + word[a0:b0 - 1].count(False))

    sub = _build(t, a2, b2)

    phi = _reduce(lefts, lambda el: _strip_left(t, a2, b2, a0, b0, el), shift, "strip")
    _assert_partition((phi,), sub.keys(), "strip-left")
    psi = _reduce(rights, lambda rel: _strip_right(t, a2, b2, a0, b0, rel), shift, "strip")
    _assert_partition((psi,), sub.values(), "strip-right")

    inv_psi = {img: rel for rel, img in psi.items()}
    return {el: inv_psi[sub[phi[el]]] for el in phi}


def _strip_left(t, a2, b2, a0, b0, el):
    c, entries, _ = el
    dropped = _entry_by_opener(entries, a0)
    if dropped[1] != (a0 if c == a0 else b0):
        raise ConstructionError("strip-pairing", f"{a0} pairs with {dropped[1]} at column {c}")
    new_c = b0 if c == a0 else c
    rest = [e for e in entries if e is not dropped]
    coll = _checked(t.word, rest, a2, b2 | {new_c}, "strip-pairing", nested_corner="strip")
    return _left(t, a2, b2, new_c, coll)


def _strip_right(t, a2, b2, a0, b0, el):
    d, dp, entries, _ = el
    base = _shift_up(t.word, d)
    dropped = _entry_by_opener(entries, a0)
    rest = [e for e in entries if e is not dropped]
    if a0 < d < b0:
        # An interior valley is forced to sit immediately before b0: being a
        # valley leaves no room for further minus positions, and the strip
        # pair encloses no plus.  The stripped opener pairs with d, so its
        # window is forced generic; the window that closed at b0 is re-aimed
        # at d, losing only the stroke at d itself.
        if b0 != d + 1:
            raise ConstructionError(
                "strip-interior-valley", f"positions remain between interior valley {d} and {b0}"
            )
        if dropped[1] != d or dropped[2]:
            raise ConstructionError(
                "strip-interior-valley", f"{a0} does not carry the forced generic window to {d}"
            )
        rest = _reaim(base, rest, b0, d, "strip-interior-valley")
    elif d == a0:
        if dropped[1] != a0:
            raise ConstructionError("strip-pairing", f"{a0} is not self-paired at valley {d}")
        rest = _reaim(base, rest, b0, a0, "strip-truncation")
    elif dropped[1] != b0:
        raise ConstructionError(
            "strip-pairing", f"{a0} pairs with {dropped[1]} instead of {b0} at valley {d}"
        )
    coll = _checked(base, rest, a2, b2 | {d}, "strip-pairing", nested_corner="strip")
    return _right(t, d, dp, coll)


# -- split case: every pair encloses a plus position ------------------------


def _case_split(t: SignSequence, a, b, a0, b0, lefts, rights):
    word = t.word
    b1 = max(r for r in range(a0 + 1, b0) if word[r - 1])
    btil = (b - {b0}) | {b1}
    if any(word[b1:b0 - 1]):
        raise ConstructionError("split", "plus positions between the split column and the removed column")
    shift = 1 + word[b1:b0 - 1].count(False)

    if not onto(a, btil):
        raise ConstructionError("split", "A is not onto the shifted removal set")
    sub1 = _build(t, a, btil)
    phi1 = _reduce(sub1.keys(), lambda el: _split_left_extend(t, a, b, b0, b1, el), shift, "split")
    psi1 = _reduce(
        sub1.values(), lambda rel: _split_right_extend(t, a, b, a0, b0, b1, rel), shift, "split"
    )

    sub2, phi2, psi2 = {}, {}, {}
    if b0 > b1 + 1:
        # T' drops the split column b1 and the minus position b1 + 1 after it
        if not onto(a, b):
            raise ConstructionError("split", "A not onto B in the reduced sequence")
        sub2 = _build(_on_ranks(word[:b1 - 1] + word[b1 + 1:]), _to_reduced(a, b1), _to_reduced(b, b1))
        valleys, unpaired = valley_set(t), unpaired_plus(t)
        phi2 = _reduce(sub2.keys(), lambda el: _split_left_insert(t, a, b, b1, el), 0, "split")
        psi2 = _reduce(
            sub2.values(),
            lambda rel: _split_right_insert(t, a, b, b1, valleys, unpaired, rel),
            0, "split",
        )
    _assert_partition((phi1, phi2), lefts, "split-left")
    _assert_partition((psi1, psi2), rights, "split-right")

    out = {img: psi1[sub1[el]] for el, img in phi1.items()}
    out.update((img, psi2[sub2[el]]) for el, img in phi2.items())
    return out


def _to_reduced(ranks: frozenset[int], b1: int) -> frozenset[int]:
    """Ranks of T re-read in T', which lacks ranks b1 and b1 + 1."""
    return frozenset(r if r < b1 else r - 2 for r in ranks)


def _from_reduced(r: int, b1: int) -> int:
    """A rank of T' re-read in T."""
    return r if r < b1 else r + 2


def _entries_from_reduced(entries, b1: int) -> list:
    """Entries of T' re-read in T; the masks skip the two missing ranks."""
    low = (1 << b1) - 1
    return [
        (_from_reduced(x, b1), _from_reduced(y, b1), (mask & low) | (mask & ~low) << 2)
        for x, y, mask in entries
    ]


def _split_left_extend(t, a, b, b0, b1, el):
    c, entries, _ = el
    if c == b0:
        return _left(t, a, b, b1, entries)
    rest = _reaim(t.word, entries, b1, b0, "split-pairing")
    return _left(t, a, b, c, _checked(t.word, rest, a, b | {c}, "split-pairing"))


def _split_left_insert(t, a, b, b1, el):
    c = _from_reduced(el[0], b1)
    coll = _reinstate_ridge(t.word, _entries_from_reduced(el[1], b1), a, b | {c}, b1)
    return _left(t, a, b, c, coll)


def _reinstate_ridge(base, entries, openers, closers, b1):
    """Reinstate the adjacent plus/minus pair at (b1, b1 + 1) as a flattened
    ridge inside every window that spans it, in the word base; the result
    must still pair openers with closers and stay well-nested."""
    out = []
    for x, y, mask in entries:
        if x < b1 < y:
            mask |= 1 << b1
        if not is_valid_mask(base, x, y, mask):
            raise ConstructionError("split-insert", "inserted ridge breaks a path")
        out.append((x, y, mask))
    return _checked(base, out, openers, closers, "split-insert")


def _split_right_extend(t, a, b, a0, b0, b1, rel):
    d, dp, entries, _ = rel
    base = _shift_up(t.word, d)
    if d == b0 - 1:  # the valley just below the removed column
        # The split column's window (a0, b1) closes at the valley instead,
        # and the window that closed at the valley moves out to b0.
        first = _entry_by_opener(entries, a0)
        if first is None or first[1] != b1:
            raise ConstructionError(
                "split-pairing", f"{a0} does not pair with the split column at valley {d}"
            )
        entries = _reaim(base, entries, d, b0, "split-pairing")
        entries = _reaim(base, entries, b1, d, "split-pairing")
    else:
        entries = _reaim(base, entries, b1, b0, "split-pairing")
    return _right(t, d, dp, _checked(base, entries, a, b | {d}, "split-pairing"))


def _split_right_insert(t, a, b, b1, valleys, unpaired, rel):
    d, dp = _from_reduced(rel[0], b1), _from_reduced(rel[1], b1)
    if d not in valleys:
        raise ConstructionError("split-insert", f"{d} is no valley of the full sequence")
    if dp not in {d} | {u for u in unpaired if u > d}:
        raise ConstructionError("split-insert", f"marker {dp} is not allowed in the full sequence")
    coll = _reinstate_ridge(_shift_up(t.word, d), _entries_from_reduced(rel[2], b1), a, b | {d}, b1)
    return _right(t, d, dp, coll)
