"""Sign sequences and path pairings.

A sign sequence is an ordered pair (plus, minus) of disjoint finite sets of
integer positions.  Reading positions in increasing order and drawing plus
as an up-stroke and minus as a down-stroke gives the associated path; the
pairing machinery below is classical bracket matching on that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


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

    def all_pairs(self) -> tuple[tuple[int, int], ...]:
        """Matched pairs plus the degenerate self-pairs, sorted by opener."""
        return tuple(sorted(self.pairs + tuple((x, x) for x in self.self_paired)))


def match_pairs(openers: Iterable[int], closers: Iterable[int]) -> Matching:
    """Bracket matching with openers as '(' and closers as ')'.

    Each closer is paired with the nearest unmatched opener on its left;
    common elements of the two sets are self-paired and excluded from the
    sweep.
    """
    a = frozenset(openers)
    b = frozenset(closers)
    common = a & b
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    unpaired_closers: list[int] = []
    for p in sorted((a | b) - common):
        if p in a:
            stack.append(p)
        elif stack:
            pairs.append((stack.pop(), p))
        else:
            unpaired_closers.append(p)
    return Matching(
        pairs=tuple(sorted(pairs)),
        unpaired_openers=frozenset(stack),
        unpaired_closers=frozenset(unpaired_closers),
        self_paired=common,
    )


def onto(openers: Iterable[int], closers: Iterable[int]) -> bool:
    """True iff every prefix holds at least as many openers as closers.

    Equivalently: the matching leaves no closer unpaired, i.e. the path of
    the pair (openers, closers) never dips below its starting level.
    """
    return not match_pairs(openers, closers).unpaired_closers


def bijective(openers: Iterable[int], closers: Iterable[int]) -> bool:
    """True iff the matching pairs every element on both sides."""
    m = match_pairs(openers, closers)
    return not m.unpaired_openers and not m.unpaired_closers


@dataclass(frozen=True)
class SignSequence:
    plus: frozenset[int]
    minus: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "plus", frozenset(self.plus))
        object.__setattr__(self, "minus", frozenset(self.minus))
        overlap = self.plus & self.minus
        if overlap:
            raise ValueError(f"plus and minus overlap at {sorted(overlap)}")

    # -- basic views ---------------------------------------------------

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.plus | self.minus))

    @property
    def size(self) -> int:
        """|plus| - |minus|; may be negative."""
        return len(self.plus) - len(self.minus)

    def matching(self) -> Matching:
        """Bracket matching of the path: plus strokes open, minus close."""
        return match_pairs(self.plus, self.minus)

    # -- derived sequences ----------------------------------------------

    def shift_up(self, d: int) -> "SignSequence":
        """Flip position d from minus to plus."""
        if d not in self.minus:
            raise ValueError(f"{d} is not a minus position")
        return SignSequence(self.plus | {d}, self.minus - {d})

    def restrict(
        self,
        lower: int | None = None,
        upper: int | None = None,
        include_upper: bool = False,
    ) -> "SignSequence":
        """Positions in (lower, upper), or (lower, upper] with include_upper."""

        def keep(x: int) -> bool:
            if lower is not None and x <= lower:
                return False
            if upper is not None and (x > upper or (x == upper and not include_upper)):
                return False
            return True

        return SignSequence(
            frozenset(x for x in self.plus if keep(x)),
            frozenset(x for x in self.minus if keep(x)),
        )

    def suffix(self, a: int) -> "SignSequence":
        """Positions strictly greater than a."""
        return self.restrict(lower=a)

    def prefix(self, b: int) -> "SignSequence":
        """Positions strictly less than b."""
        return self.restrict(upper=b)

    def between(self, a: int, b: int) -> "SignSequence":
        """Positions strictly between a and b (the window of a pair)."""
        return self.restrict(lower=a, upper=b)

    def half_open(self, a: int, b: int) -> "SignSequence":
        """Positions in (a, b]."""
        return self.restrict(lower=a, upper=b, include_upper=True)


def valley_set(t: SignSequence) -> frozenset[int]:
    """Minus positions whose strict suffix satisfies the prefix condition.

    These index the down-strokes at the bottoms of the path from which the
    remainder of the path never dips lower.
    """
    return frozenset(
        v for v in t.minus if not match_pairs(t.suffix(v).plus, t.suffix(v).minus).unpaired_closers
    )


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
