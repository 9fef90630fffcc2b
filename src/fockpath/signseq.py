"""Sign sequences and path pairings.

A sign sequence is an ordered pair (plus, minus) of disjoint finite sets of
integer positions.  Reading positions in increasing order and drawing plus
as an up-stroke and minus as a down-stroke gives the associated path; the
pairing machinery below is classical bracket matching on that path.

Every matching of an opener set against a closer set is one unmemoised
scan, ``bracket_pairs``, which ``match_pairs`` and the collection code
read; ``onto`` and ``bijective`` count path levels instead.  A sequence
owns its one rank map, ``positions`` one way and ``ranks`` the other, and
cuts every window one way, ``restrict``: the positions strictly between
two bounds, either of which may be left open.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping


def _frozen(cls, **fields):
    """An instance of the frozen dataclass cls whose fields (and any cached
    views named beside them) are already checked: written to the instance
    ``__dict__`` at once, bypassing ``__init__``, ``__post_init__`` and the
    frozen ``__setattr__``.  Every field must be named; the public
    constructor keeps every check."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class PairingError(ValueError):
    """A pairing precondition failed (e.g. a required perfect matching)."""


@dataclass(frozen=True)
class Matching:
    """Result of bracket-matching openers against closers.

    Pairs are non-crossing and each has opener < closer.  Positions common
    to both input sets are paired with themselves and take no part in the
    matching proper.
    """

    pairs: tuple[tuple[int, int], ...]
    unpaired_openers: frozenset[int]
    unpaired_closers: frozenset[int]
    self_paired: frozenset[int]

    def partner(self, position: int) -> int | None:
        if position in self.self_paired:
            return position
        for u, w in self.pairs:
            if u == position:
                return w
            if w == position:
                return u
        return None


def bracket_pairs(
    openers: AbstractSet[int], closers: AbstractSet[int]
) -> tuple[list[list[int]], list[int], list[int]]:
    """Bracket matching of the sets openers ('(') and closers (')') in one
    scan: each closer takes the nearest unmatched opener on its left, and an
    element of both sets pairs with itself, outside the scan.

    Returns every pair as [opener, closer, parent] in opener order, parent
    being the index of the genuine pair directly enclosing it (-1 for none
    and for a self-pair), then the unmatched openers and closers, ascending.
    Read backwards, the pairs list children first.
    """
    out: list[list[int]] = []
    stack: list[int] = []  # indices into out of the openers still open
    lone: list[int] = []
    for r in sorted(openers | closers):
        if r not in closers:
            out.append([r, 0, stack[-1] if stack else -1])
            stack.append(len(out) - 1)
        elif r in openers:
            out.append([r, r, -1])
        elif stack:
            out[stack.pop()][1] = r
        else:
            lone.append(r)
    if not stack:
        return out, [], lone
    # Drop the openers left open and renumber the parents.  Each opener below
    # a left-open one is left open too, so a left-open parent becomes -1.
    left_open = set(stack)
    pairs = [[u, w, -1 if p in left_open else p - bisect_left(stack, p)]
             for k, (u, w, p) in enumerate(out) if k not in left_open]
    return pairs, [out[k][0] for k in stack], lone


def match_pairs(openers: Iterable[int], closers: Iterable[int]) -> Matching:
    """Bracket matching with openers as '(' and closers as ')': the
    bracket_pairs scan as a Matching.

    Each closer is paired with the nearest unmatched opener on its left;
    common elements of the two sets are self-paired and excluded from the
    sweep.
    """
    a, b = frozenset(openers), frozenset(closers)
    pairs, lone_openers, lone_closers = bracket_pairs(a, b)
    return Matching(
        pairs=tuple((u, w) for u, w, _ in pairs if u != w),
        unpaired_openers=frozenset(lone_openers),
        unpaired_closers=frozenset(lone_closers),
        self_paired=a & b,
    )


def _lowest_and_final(openers: Iterable[int], closers: Iterable[int]) -> tuple[int, int]:
    """Lowest and final level of the path of (openers, closers), read from
    level 0; common elements take no part."""
    a = frozenset(openers)
    b = frozenset(closers)
    level = lowest = 0
    for p in sorted(a ^ b):
        if p in a:
            level += 1
        else:
            level -= 1
            if level < lowest:
                lowest = level
    return lowest, level


def onto(openers: Iterable[int], closers: Iterable[int]) -> bool:
    """True iff every prefix holds at least as many openers as closers.

    Equivalently: the matching leaves no closer unpaired, i.e. the path of
    the pair (openers, closers) never dips below its starting level.
    """
    return _lowest_and_final(openers, closers)[0] == 0


def bijective(openers: Iterable[int], closers: Iterable[int]) -> bool:
    """True iff the matching pairs every element on both sides: the path
    never dips below its starting level and ends on it."""
    return _lowest_and_final(openers, closers) == (0, 0)


@dataclass(frozen=True)
class SignSequence:
    """Disjoint plus and minus positions.

    Equality, hashing and repr are those of (plus, minus).  The sorted
    positions (rank -> position), the rank map (position -> rank), the sign
    word, the generic path's prefix heights and the matching are computed
    once per object, on first use (``cached_property`` writes the instance
    ``__dict__``, which the frozen dataclass allows); ``restrict`` builds a
    window with ``_frozen``, its positions and word sliced from this
    sequence's.
    """

    plus: frozenset[int]
    minus: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "plus", frozenset(self.plus))
        object.__setattr__(self, "minus", frozenset(self.minus))
        overlap = self.plus & self.minus
        if overlap:
            raise ValueError(f"plus and minus overlap at {sorted(overlap)}")

    # -- basic views ---------------------------------------------------

    @cached_property
    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.plus | self.minus))

    @cached_property
    def ranks(self) -> Mapping[int, int]:
        """Read-only position -> 1-based rank; the inverse of positions."""
        return MappingProxyType({p: r for r, p in enumerate(self.positions, 1)})

    @cached_property
    def word(self) -> tuple[bool, ...]:
        """The order type: True for each plus position, in position order."""
        plus = self.plus
        return tuple(p in plus for p in self.positions)

    @cached_property
    def prefix_heights(self) -> tuple[int, ...]:
        """prefix_heights[k] is the level of the generic path after its
        first k strokes; prefix_heights[0] = 0."""
        heights = [0]
        for p in self.positions:
            heights.append(heights[-1] + (1 if p in self.plus else -1))
        return tuple(heights)

    @property
    def size(self) -> int:
        """|plus| - |minus|; may be negative."""
        return len(self.plus) - len(self.minus)

    def height(self, x: int) -> int:
        """Level of the generic path after every stroke at a position <= x,
        i.e. the size of the positions <= x."""
        return self.prefix_heights[bisect_right(self.positions, x)]

    @cached_property
    def _matching(self) -> Matching:
        return match_pairs(self.plus, self.minus)

    def matching(self) -> Matching:
        """Bracket matching of the path: plus strokes open, minus close."""
        return self._matching

    # -- derived sequences ----------------------------------------------

    def shift_up(self, d: int) -> "SignSequence":
        """Flip position d from minus to plus."""
        if d not in self.minus:
            raise ValueError(f"{d} is not a minus position")
        return SignSequence(self.plus | {d}, self.minus - {d})

    def restrict(self, lower: int | None = None, upper: int | None = None) -> "SignSequence":
        """Positions strictly between lower and upper; None leaves that end
        open.  The window of a pair (a, b) is restrict(a, b), and positions
        are ints, so (a, b] is restrict(a, b + 1)."""
        positions = self.positions
        lo = 0 if lower is None else bisect_right(positions, lower)
        hi = len(positions) if upper is None else bisect_left(positions, upper)
        window = positions[lo:hi]
        members = frozenset(window)
        # A window is a rank slice of a checked sequence: its signs cannot
        # overlap, and its sorted positions and sign word are slices of this
        # sequence's, so it is built in one write, spared its sort.
        return _frozen(SignSequence, plus=members & self.plus, minus=members - self.plus,
                       positions=window, word=self.word[lo:hi])


def valley_set(t: SignSequence) -> frozenset[int]:
    """Minus positions whose strict suffix satisfies the prefix condition.

    These index the down-strokes at the bottoms of the path from which the
    remainder of the path never dips lower: read right to left, a minus
    position is a valley iff no later prefix height is below its own.
    """
    positions, heights = t.positions, t.prefix_heights
    out = []
    lowest = heights[-1]
    for k in range(len(positions), 0, -1):
        if heights[k] <= lowest:
            lowest = heights[k]
            if positions[k - 1] in t.minus:
                out.append(positions[k - 1])
    return frozenset(out)


def unpaired_plus(t: SignSequence) -> frozenset[int]:
    """Plus positions left unpaired by the path's own matching."""
    return t.matching().unpaired_openers


def preceq(
    a: Iterable[int], b: Iterable[int], c: Iterable[int], d: Iterable[int]
) -> bool:
    """The order (a, b) <= (c, d): equal set-size differences and the union
    pairing (b | c) onto (a | d).

    Callers keep the opener universe and closer universe disjoint; with
    that convention the relation is a partial order on pairs satisfying
    onto(a, b).
    """
    a, b, c, d = frozenset(a), frozenset(b), frozenset(c), frozenset(d)
    if len(a) - len(b) != len(c) - len(d):
        return False
    return onto(b | c, a | d)
