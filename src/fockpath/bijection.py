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

The two norm multisets always agree; build_bijection produces an explicit
norm-preserving bijection by recursion (strip a pair with empty plus
interior, or split along the plus closest below a removed column).  Every
structural assumption of the construction is asserted at runtime, and any
failure raises ConstructionError tagged with the corner that broke, so
callers can fall back to the multiset check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .latticepath import (
    LatticedPath,
    WellNestedCollection,
    collection_norms,
    is_valid_path,
    is_well_nested,
    make_collection,
    well_nested_collections,
)
from .signseq import SignSequence, match_pairs, onto, unpaired_plus, valley_set


class ConstructionError(RuntimeError):
    """The explicit bijection could not be built on this instance.

    ``corner`` names the construction step that failed; the instance
    data rides along for reporting.
    """

    def __init__(self, corner: str, detail: str, t: SignSequence, a, b):
        self.corner = corner
        self.instance = (t, frozenset(a), frozenset(b))
        super().__init__(
            f"[{corner}] {detail} (plus={sorted(t.plus)}, minus={sorted(t.minus)}, "
            f"A={sorted(a)}, B={sorted(b)})"
        )


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


def _check_instance(t: SignSequence, a: frozenset[int], b: frozenset[int]) -> None:
    if not a <= t.minus:
        raise ValueError(f"A={sorted(a)} must consist of minus positions")
    if not b <= t.plus:
        raise ValueError(f"B={sorted(b)} must consist of plus positions")
    if len(a) != len(b) + 1:
        raise ValueError(f"need |A| = |B| + 1, got {len(a)} and {len(b)}")
    if not onto(a, b):
        raise ValueError(f"A={sorted(a)} is not onto B={sorted(b)}")


def _left_shift(t: SignSequence, a, b, c: int) -> int:
    """Norm of a left element at column c, less its collection's norm."""
    # t.suffix(c).size is t.size - t.height(c)
    return (
        2 * (sum(1 for x in b if x > c) - sum(1 for x in a if x > c))
        + t.height(c) - t.size
    )


def _right_shift(t: SignSequence, d: int, dp: int) -> int:
    """Norm of a right element at valley d and marker dp, less its
    collection's norm."""
    # t.half_open(d, dp).size is t.height(dp) - t.height(d)
    return 2 * t.height(dp) - t.height(d) - t.size


def _left(t: SignSequence, a, b, c: int, coll: WellNestedCollection) -> LeftElement:
    return LeftElement(position=c, collection=coll, norm=_left_shift(t, a, b, c) + coll.norm)


def _right(t: SignSequence, d: int, dp: int, coll: WellNestedCollection) -> RightElement:
    norm = _right_shift(t, d, dp) + coll.norm
    return RightElement(valley=d, marker=dp, collection=coll, norm=norm)


def _completions(t: SignSequence, a: frozenset[int], b: frozenset[int]) -> list[int]:
    """The completion columns c of the left index set, with A onto B + c."""
    return [c for c in sorted((t.plus | a) - b) if onto(a, b | {c})]


def _valleys(
    t: SignSequence, a: frozenset[int], b: frozenset[int]
) -> list[tuple[int, list[int]]]:
    """The valleys d of the right index set, with A onto B + d, each with
    its markers: d itself and the unpaired plus positions beyond it."""
    unpaired = unpaired_plus(t)
    return [
        (d, sorted({d} | {u for u in unpaired if u > d}))
        for d in sorted(valley_set(t))
        if onto(a, b | {d})
    ]


# Index sets memoised per (t, A, B).  The construction recurses into the same
# sub-instances from neighbouring instances of a sweep, so a small cache shared
# across build_bijection calls keeps most of the hits at little memory.
_INDEX_SET_CACHE = 16


def left_elements(
    t: SignSequence, a, b
) -> tuple[LeftElement, ...]:
    return _left_elements(t, frozenset(a), frozenset(b))


@lru_cache(maxsize=_INDEX_SET_CACHE)
def _left_elements(
    t: SignSequence, a: frozenset[int], b: frozenset[int]
) -> tuple[LeftElement, ...]:
    _check_instance(t, a, b)
    return tuple(
        _left(t, a, b, c, coll)
        for c in _completions(t, a, b)
        for coll in well_nested_collections(t, a, b | {c})
    )


def right_elements(
    t: SignSequence, a, b
) -> tuple[RightElement, ...]:
    return _right_elements(t, frozenset(a), frozenset(b))


@lru_cache(maxsize=_INDEX_SET_CACHE)
def _right_elements(
    t: SignSequence, a: frozenset[int], b: frozenset[int]
) -> tuple[RightElement, ...]:
    _check_instance(t, a, b)
    out = []
    for d, markers in _valleys(t, a, b):
        colls = well_nested_collections(t.shift_up(d), a, b | {d})
        out.extend(_right(t, d, dp, coll) for dp in markers for coll in colls)
    return tuple(out)


def left_norms(t: SignSequence, a, b) -> Counter[int]:
    """Norm -> number of left elements, counted without building them."""
    a, b = frozenset(a), frozenset(b)
    _check_instance(t, a, b)
    out: Counter[int] = Counter()
    for c in _completions(t, a, b):
        shift = _left_shift(t, a, b, c)
        for norm, count in collection_norms(t, a, b | {c}).items():
            out[norm + shift] += count
    return out


def right_norms(t: SignSequence, a, b) -> Counter[int]:
    """Norm -> number of right elements, counted without building them."""
    a, b = frozenset(a), frozenset(b)
    _check_instance(t, a, b)
    out: Counter[int] = Counter()
    for d, markers in _valleys(t, a, b):
        counts = collection_norms(t.shift_up(d), a, b | {d})
        for dp in markers:
            shift = _right_shift(t, d, dp)
            for norm, count in counts.items():
                out[norm + shift] += count
    return out


def norm_multisets_match(t: SignSequence, a, b) -> bool:
    """Whether the left and right norm multisets coincide (the computational
    content of the identity; always true in every tested regime)."""
    return left_norms(t, a, b) == right_norms(t, a, b)


# -- the explicit bijection ------------------------------------------------


def build_bijection(t: SignSequence, a, b) -> dict[LeftElement, RightElement]:
    """Explicit norm-preserving bijection from left to right elements.

    Raises ConstructionError when a proof-step assumption fails on the
    instance; the result is otherwise verified total, injective, onto and
    norm-preserving before being returned.
    """
    a, b = frozenset(a), frozenset(b)
    _check_instance(t, a, b)
    mapping = _build(t, a, b)
    lefts = left_elements(t, a, b)
    rights = right_elements(t, a, b)
    if set(mapping) != set(lefts):
        raise ConstructionError("verify", "map domain differs from the left set", t, a, b)
    if len(set(mapping.values())) != len(mapping):
        raise ConstructionError("verify", "map is not injective", t, a, b)
    if set(mapping.values()) != set(rights):
        raise ConstructionError("verify", "map image differs from the right set", t, a, b)
    for el, img in mapping.items():
        if el.norm != img.norm:
            raise ConstructionError(
                "verify", f"norm {el.norm} mapped to {img.norm}", t, a, b
            )
    return mapping


def _build(t: SignSequence, a: frozenset[int], b: frozenset[int]):
    if not b:
        return _base_case(t, next(iter(a)))
    empty_pairs = [
        (x, y) for x in a for y in b if x < y and not t.between(x, y).plus
    ]
    if empty_pairs:
        return _case_strip(t, a, b, empty_pairs)
    return _case_split(t, a, b)


# -- base case: a single added column --------------------------------------


def _descending_path(t: SignSequence, a: frozenset[int], b: frozenset[int], lo: int, hi: int) -> LatticedPath:
    """Every matched pair of the window (lo, hi) flattened; no up-stroke may
    survive."""
    window = t.between(lo, hi)
    m = window.matching()
    if m.unpaired_openers:
        raise ConstructionError(
            "base-descending",
            f"window ({lo},{hi}) keeps unmatched up-strokes at {sorted(m.unpaired_openers)}",
            t, a, b,
        )
    return LatticedPath(window, frozenset(m.pairs))


def _base_case(t: SignSequence, a0: int):
    a = frozenset({a0})
    b: frozenset[int] = frozenset()
    valleys = valley_set(t)
    full = t.matching()
    mapping = {}
    for el in left_elements(t, a, b):
        c = el.position
        if c == a0:
            if a0 in valleys:
                coll = make_collection(
                    t.shift_up(a0), [(a0, a0, LatticedPath.empty())]
                )
                mapping[el] = _right(t, a0, a0, coll)
            else:
                later = sorted(v for v in valleys if v > a0)
                if not later:
                    raise ConstructionError("base", "no valley beyond the added column", t, a, b)
                d = later[0]
                path = _descending_path(t, a, b, a0, d)
                coll = make_collection(t.shift_up(d), [(a0, d, path)])
                mapping[el] = _right(t, d, d, coll)
            continue
        gamma = el.collection.path_of(a0)
        if c in full.unpaired_openers:
            mapping[el] = _truncation_image(t, a, b, a0, c, gamma, valleys)
        else:
            mapping[el] = _extension_image(t, a, b, a0, c, gamma, valleys)
    return mapping


def _truncation_image(t, a, b, a0, c, gamma, valleys):
    """Unpaired completion column: cut the path at the last minus position
    not covered by a flattened pair; everything beyond it is forced."""
    covered = set()
    for u, w in gamma.flattened:
        covered.update(x for x in t.positions if u <= x <= w)
    candidates = [x for x in t.minus if x < c and x not in covered]
    if not candidates:
        raise ConstructionError("base-truncation", "no uncovered minus below the column", t, a, b)
    d = max(candidates)
    if d not in valleys:
        raise ConstructionError("base-truncation", f"cut position {d} is not a valley", t, a, b)
    kept = frozenset(p for p in gamma.flattened if p[1] < d)
    if any(u < d <= w for u, w in gamma.flattened - kept):
        raise ConstructionError("base-truncation", f"a flattened pair straddles {d}", t, a, b)
    if d == a0:
        if kept:
            raise ConstructionError("base-truncation", "flattened pairs below the added column", t, a, b)
        path = LatticedPath.empty()
    else:
        path = LatticedPath(t.between(a0, d), kept)
        if not is_valid_path(path):
            raise ConstructionError("base-truncation", "cut path is not a latticed path", t, a, b)
    coll = make_collection(t.shift_up(d), [(a0, d, path)])
    return _right(t, d, c, coll)


def _extension_image(t, a, b, a0, c, gamma, valleys):
    """Paired completion column: keep its up-stroke and descend to the next
    valley, flattening the whole stretch in between."""
    later = sorted(v for v in valleys if v > c)
    if not later:
        raise ConstructionError("base-extension", "no valley beyond the paired column", t, a, b)
    d = later[0]
    window = t.between(a0, d)
    wpairs = set(window.matching().pairs)
    if not gamma.flattened <= wpairs:
        raise ConstructionError(
            "base-extension", "existing flattenings are not pairs of the longer window", t, a, b
        )
    extra = {p for p in wpairs if p[0] > c}
    ups_between = {x for x in t.plus if c < x < d}
    if ups_between - {u for u, _ in extra}:
        raise ConstructionError(
            "base-descending",
            f"up-strokes {sorted(ups_between - {u for u, _ in extra})} survive between {c} and {d}",
            t, a, b,
        )
    path = LatticedPath(window, gamma.flattened | extra)
    if not is_valid_path(path):
        raise ConstructionError("base-extension", "extended path is not a latticed path", t, a, b)
    coll = make_collection(t.shift_up(d), [(a0, d, path)])
    return _right(t, d, d, coll)


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


def _reduce(elements, step, shift, corner, t, a, b) -> dict:
    """Every element mapped by step; each image's norm must exceed the
    element's by exactly shift."""
    out = {}
    for el in elements:
        image = step(el)
        if image.norm - el.norm != shift:
            raise ConstructionError(corner, f"norm shift {image.norm - el.norm} != {shift}", t, a, b)
        out[el] = image
    return out


def _assert_partition(parts, whole, corner, t, a, b):
    """The images of the reductions in parts are distinct and cover whole."""
    combined = [img for part in parts for img in part.values()]
    if len(set(combined)) != len(combined) or set(combined) != set(whole):
        raise ConstructionError(
            corner, "the reductions do not partition the index set", t, a, b
        )


def _checked(base, entries, openers, closers, corner, t, a, b, nested_corner=None):
    """The collection of entries in base, once they are known to still pair
    openers with closers and to stay well-nested."""
    if match_pairs(openers, closers).all_pairs() != tuple(sorted((x, y) for x, y, _ in entries)):
        raise ConstructionError(corner, "the windows no longer match openers to closers", t, a, b)
    if not is_well_nested(base, entries):
        raise ConstructionError(nested_corner or corner, "the collection is not well-nested", t, a, b)
    return make_collection(base, entries)


def _reaim(base: SignSequence, entries, old, new, corner, t, a, b) -> list:
    """The entries with the window closing at old re-read in base as closing
    at new, keeping its flattened pairs; none of them may reach new."""
    carrier = _entry_by_closer(entries, old)
    if carrier is None:
        raise ConstructionError(corner, f"no window closes at {old}", t, a, b)
    x, _, path = carrier
    if any(w >= new for _, w in path.flattened):
        raise ConstructionError(
            corner, f"flattened pairs of the ({x},{old}) window reach past {new}", t, a, b
        )
    reaimed = LatticedPath(base.between(x, new), path.flattened)
    if not is_valid_path(reaimed):
        raise ConstructionError(corner, f"re-aimed path ({x},{new}) is invalid", t, a, b)
    return [e for e in entries if e is not carrier] + [(x, new, reaimed)]


# -- strip case: some pair encloses no plus position ------------------------


def _case_strip(t: SignSequence, a: frozenset[int], b: frozenset[int], empty_pairs):
    a0, b0 = _chosen_pair(a, empty_pairs)
    window0 = t.between(a0, b0)
    if window0.plus:
        raise ConstructionError("strip", "normalisation exposed plus positions", t, a, b)
    if window0.minus & a:
        raise ConstructionError("strip", "normalisation left members of A inside", t, a, b)
    a2, b2 = a - {a0}, b - {b0}
    shift = -(1 + len(window0.minus))

    sub = _build(t, a2, b2)

    phi = _reduce(
        left_elements(t, a, b),
        lambda el: _strip_left(t, a, b, a2, b2, a0, b0, el),
        shift, "strip", t, a, b,
    )
    _assert_partition((phi,), left_elements(t, a2, b2), "strip-left", t, a, b)
    psi = _reduce(
        right_elements(t, a, b),
        lambda rel: _strip_right(t, a, b, a2, b2, a0, b0, rel),
        shift, "strip", t, a, b,
    )
    _assert_partition((psi,), right_elements(t, a2, b2), "strip-right", t, a, b)

    inv_psi = {img: rel for rel, img in psi.items()}
    return {el: inv_psi[sub[phi[el]]] for el in phi}


def _strip_left(t, a, b, a2, b2, a0, b0, el: LeftElement) -> LeftElement:
    c = el.position
    dropped = _entry_by_opener(el.collection.entries, a0)
    if dropped[1] != (a0 if c == a0 else b0):
        raise ConstructionError(
            "strip-pairing", f"{a0} pairs with {dropped[1]} at column {c}", t, a, b
        )
    new_c = b0 if c == a0 else c
    rest = [e for e in el.collection.entries if e is not dropped]
    coll = _checked(t, rest, a2, b2 | {new_c}, "strip-pairing", t, a, b, nested_corner="strip")
    return _left(t, a2, b2, new_c, coll)


def _strip_right(t, a, b, a2, b2, a0, b0, el: RightElement) -> RightElement:
    d, dp = el.valley, el.marker
    base = t.shift_up(d)
    dropped = _entry_by_opener(el.collection.entries, a0)
    rest = [e for e in el.collection.entries if e is not dropped]
    if a0 < d < b0:
        # An interior valley is forced to sit immediately before b0: being a
        # valley leaves no room for further minus positions, and the strip
        # pair encloses no plus.  The stripped opener pairs with d, so its
        # window is forced generic; the window that closed at b0 is re-aimed
        # at d, losing only the stroke at d itself.
        if t.half_open(d, b0).positions != (b0,):
            raise ConstructionError(
                "strip-interior-valley",
                f"positions remain between interior valley {d} and {b0}",
                t, a, b,
            )
        if dropped[1] != d or dropped[2].flattened:
            raise ConstructionError(
                "strip-interior-valley",
                f"{a0} does not carry the forced generic window to {d}",
                t, a, b,
            )
        rest = _reaim(base, rest, b0, d, "strip-interior-valley", t, a, b)
    elif d == a0:
        if dropped[1] != a0:
            raise ConstructionError("strip-pairing", f"{a0} is not self-paired at valley {d}", t, a, b)
        rest = _reaim(base, rest, b0, a0, "strip-truncation", t, a, b)
    elif dropped[1] != b0:
        raise ConstructionError(
            "strip-pairing", f"{a0} pairs with {dropped[1]} instead of {b0} at valley {d}", t, a, b
        )
    coll = _checked(base, rest, a2, b2 | {d}, "strip-pairing", t, a, b, nested_corner="strip")
    return _right(t, d, dp, coll)


# -- split case: every pair encloses a plus position ------------------------


def _case_split(t: SignSequence, a: frozenset[int], b: frozenset[int]):
    pairs_ab = [(x, y) for x in a for y in b if x < y]
    if not pairs_ab:
        raise ConstructionError("split", "no opener below any removed column", t, a, b)
    sizes = {p: len(t.between(*p).plus) for p in pairs_ab}
    m0 = min(sizes.values())
    if m0 == 0:
        raise ConstructionError("split", "dispatch error: an empty plus interior remains", t, a, b)
    a0, b0 = _chosen_pair(a, [p for p in pairs_ab if sizes[p] == m0])
    window0 = t.between(a0, b0)
    if len(window0.plus) != m0:
        raise ConstructionError("split", "normalisation changed the minimal interior", t, a, b)
    if window0.minus & a or window0.plus & b:
        raise ConstructionError("split", "chosen pair keeps A or B members inside", t, a, b)
    b1 = max(window0.plus)
    btil = (b - {b0}) | {b1}
    interior = t.between(b1, b0)
    if interior.plus:
        raise ConstructionError("split", "plus positions between the split column and the removed column", t, a, b)
    shift = 1 + len(interior.minus)

    if not onto(a, btil):
        raise ConstructionError("split", "A is not onto the shifted removal set", t, a, b)
    sub1 = _build(t, a, btil)
    phi1 = _reduce(
        left_elements(t, a, btil),
        lambda el: _split_left_extend(t, a, b, b0, b1, el),
        shift, "split", t, a, b,
    )
    mstar = max(t.prefix(b0).positions)
    psi1 = _reduce(
        right_elements(t, a, btil),
        lambda rel: _split_right_extend(t, a, b, a0, b0, b1, mstar, rel),
        shift, "split", t, a, b,
    )

    sub2, phi2, psi2 = {}, {}, {}
    if interior.positions:
        a2 = min(interior.positions)
        tprime = SignSequence(t.plus - {b1}, t.minus - {a2})
        if not onto(a, b):
            raise ConstructionError("split", "A not onto B in the reduced sequence", t, a, b)
        sub2 = _build(tprime, a, b)
        phi2 = _reduce(
            left_elements(tprime, a, b),
            lambda el: _left(
                t, a, b, el.position,
                _reinstate_ridge(t, el.collection, b | {el.position}, b1, a2, t, a, b),
            ),
            0, "split", t, a, b,
        )
        psi2 = _reduce(
            right_elements(tprime, a, b),
            lambda rel: _split_right_insert(t, a, b, b1, a2, rel),
            0, "split", t, a, b,
        )
    _assert_partition((phi1, phi2), left_elements(t, a, b), "split-left", t, a, b)
    _assert_partition((psi1, psi2), right_elements(t, a, b), "split-right", t, a, b)

    out = {img: psi1[sub1[el]] for el, img in phi1.items()}
    out.update((img, psi2[sub2[el]]) for el, img in phi2.items())
    return out


def _split_left_extend(t, a, b, b0, b1, el: LeftElement) -> LeftElement:
    c = el.position
    if c == b0:
        return _left(t, a, b, b1, el.collection)
    rest = _reaim(t, el.collection.entries, b1, b0, "split-pairing", t, a, b)
    return _left(t, a, b, c, _checked(t, rest, a, b | {c}, "split-pairing", t, a, b))


def _reinstate_ridge(
    base: SignSequence, coll: WellNestedCollection, closers, b1, a2, t, a, b
) -> WellNestedCollection:
    """Reinstate the adjacent plus/minus pair (b1, a2) as a flattened ridge
    inside every window of coll that spans it, re-reading each window in
    base; the result must still pair A with closers and stay well-nested."""
    entries = []
    for x, y, path in coll.entries:
        if x < b1 < y:
            new = LatticedPath(base.between(x, y), path.flattened | {(b1, a2)})
        elif x == y:
            new = path
        else:
            new = LatticedPath(base.between(x, y), path.flattened)
        if not is_valid_path(new):
            raise ConstructionError("split-insert", "inserted ridge breaks a path", t, a, b)
        entries.append((x, y, new))
    return _checked(base, entries, a, closers, "split-insert", t, a, b)


def _split_right_extend(t, a, b, a0, b0, b1, mstar, rel: RightElement) -> RightElement:
    d, dp = rel.valley, rel.marker
    base = t.shift_up(d)
    entries = rel.collection.entries
    if d == mstar:
        # The split column's window (a0, b1) closes at the valley instead,
        # and the window that closed at the valley moves out to b0.
        first = _entry_by_opener(entries, a0)
        if first is None or first[1] != b1:
            raise ConstructionError(
                "split-pairing", f"{a0} does not pair with the split column at valley {d}", t, a, b
            )
        entries = _reaim(base, entries, d, b0, "split-pairing", t, a, b)
        entries = _reaim(base, entries, b1, d, "split-pairing", t, a, b)
    else:
        entries = _reaim(base, entries, b1, b0, "split-pairing", t, a, b)
    return _right(t, d, dp, _checked(base, entries, a, b | {d}, "split-pairing", t, a, b))


def _split_right_insert(t, a, b, b1, a2, rel: RightElement) -> RightElement:
    d, dp = rel.valley, rel.marker
    if d not in valley_set(t):
        raise ConstructionError("split-insert", f"{d} is no valley of the full sequence", t, a, b)
    allowed = {d} | {u for u in unpaired_plus(t) if u > d}
    if dp not in allowed:
        raise ConstructionError("split-insert", f"marker {dp} is not allowed in the full sequence", t, a, b)
    coll = _reinstate_ridge(t.shift_up(d), rel.collection, b | {d}, b1, a2, t, a, b)
    return _right(t, d, dp, coll)
