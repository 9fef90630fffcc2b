"""Partitions, Young-diagram nodes, beta-sets and residue bookkeeping.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Nodes are 1-based (row, col)
pairs.  The residue of a node (i, j) modulo e is (j - i) mod e.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from operator import ge
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Node = tuple[int, int]


class Comparison(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalise an iterable of parts into a partition tuple;
    a part may be any value that int() reads exactly, such as "2" or 1.0."""
    parts = tuple(parts)
    try:
        p = tuple(map(int, parts))
    except (TypeError, ValueError, OverflowError):  # such as None, "x" or inf
        p = tuple(map(_int_part, parts))  # raises, naming the first bad part
    # one C-level pass accepts the valid input: parts that are already ints
    # and weakly decreasing are all positive when the last one is
    if not p or (p == parts and p[-1] > 0 and all(map(ge, p, p[1:]))):
        return p
    # otherwise the loop raises on the first bad part, naming it
    for i, (x, given) in enumerate(zip(p, parts)):
        if x != given and not isinstance(given, str):
            raise ValueError(f"parts must be integers, got {given!r}")
        if x <= 0:
            raise ValueError(f"parts must be positive, got {x}")
        if i and p[i - 1] < x:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p  # exact parts given as strings or floats


def _int_part(given) -> int:
    try:
        return int(given)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"parts must be integers, got {given!r}") from None


def check_e(e: int) -> int:
    """Validate the modulus e of residues and return it."""
    if not isinstance(e, int):
        raise ValueError(f"e must be an integer, got {e!r}")
    if e < 2:
        raise ValueError("e must be at least 2")
    return e


def check_residue(e: int, r: int) -> None:
    """Validate the modulus e, as check_e does, then a residue r modulo it."""
    # one test on the valid input
    if not (isinstance(e, int) and isinstance(r, int) and e >= 2 and 0 <= r < e):
        check_e(e)
        if not isinstance(r, int):
            raise ValueError(f"residue must be an integer, got {r!r}")
        raise ValueError(f"residue {r} out of range for e={e}")


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts; '' and '0' denote the empty partition."""
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    return check_partition(int(x) for x in text.split(","))


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else "0"


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, in lexicographically decreasing order."""
    if not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {n!r}")

    def gen(rest: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if rest == 0:
            yield prefix
            return
        for part in range(min(rest, cap), 0, -1):
            yield from gen(rest - part, part, prefix + (part,))

    yield from gen(n, n, ())


def cells(p: Partition) -> Iterator[Node]:
    for i, row in enumerate(p, start=1):
        for j in range(1, row + 1):
            yield (i, j)


def residue(node: Node, e: int) -> int:
    i, j = node
    return (j - i) % e


def removable_nodes(p: Partition) -> list[Node]:
    """Nodes whose removal leaves a partition, ordered by row."""
    out = []
    for i in range(len(p)):
        if i == len(p) - 1 or p[i] > p[i + 1]:
            out.append((i + 1, p[i]))
    return out


def addable_nodes(p: Partition) -> list[Node]:
    """Nodes whose addition leaves a partition, ordered by row."""
    if not p:
        return [(1, 1)]
    out = [(1, p[0] + 1)]
    for i in range(1, len(p)):
        if p[i - 1] > p[i]:
            out.append((i + 1, p[i] + 1))
    out.append((len(p) + 1, 1))
    return out


def boundary_nodes(p: Partition, e: int, r: int) -> tuple[list[Node], list[Node]]:
    """Removable and indent (addable) r-nodes, each sorted by column.

    Within one residue class the returned nodes occupy pairwise distinct
    columns, so columns are a faithful total order key for them.  Rows are
    read from the bottom up, where columns only grow, so both lists come
    out sorted.
    """
    check_residue(e, r)
    removable: list[Node] = []
    indent: list[Node] = []
    below = 0  # the row under row i; the row under the last one is empty
    if -len(p) % e == r:
        indent.append((len(p) + 1, 1))
    for i in range(len(p), 0, -1):
        row = p[i - 1]
        if row > below and (row - i) % e == r:
            removable.append((i, row))
        if (i == 1 or p[i - 2] > row) and (row + 1 - i) % e == r:
            indent.append((i, row + 1))
        below = row
    return removable, indent


def add_cell(p: Partition, node: Node) -> Partition:
    i, j = node
    n = len(p)
    # (i, j) is addable iff it extends row i (row n + 1 is empty) and row i
    # is shorter than the row above it
    if not (1 <= i <= n + 1 and j == (p[i - 1] if i <= n else 0) + 1
            and (i == 1 or p[i - 2] >= j)):
        raise ValueError(f"{node} is not an addable node of {p}")
    return p[: i - 1] + (j,) + p[i:]


# -- beta-sets ---------------------------------------------------------


def beta_set(p: Partition, t: int) -> frozenset[int]:
    """The size-t beta-set {p_i + t - i} of p, padded with {t-i : l < i <= t}."""
    if t < len(p):
        raise ValueError(f"beta-set size {t} is below the number of parts {len(p)}")
    beads = {p[i - 1] + t - i for i in range(1, len(p) + 1)}
    beads.update(t - i for i in range(len(p) + 1, t + 1))
    return frozenset(beads)


def partition_from_beta(beta: Iterable[int]) -> Partition:
    """Inverse of beta_set; the size is the number of beads."""
    beads = sorted(beta, reverse=True)
    t = len(beads)
    parts = []
    for idx, b in enumerate(beads):
        if b < 0:
            raise ValueError("beta-set elements must be non-negative")
        x = b - (t - 1 - idx)
        if x < 0:
            raise ValueError(f"{beads} is not a valid beta-set")
        if x > 0:
            parts.append(x)
    return check_partition(parts)


# -- dominance and the Jantzen step relation ---------------------------


def dominates(p: Partition, q: Partition) -> bool:
    """True iff p and q have equal size, len(p) <= len(q), and every
    partial sum of p is at least the corresponding partial sum of q."""
    if sum(p) != sum(q) or len(p) > len(q):
        return False
    sp = sq = 0
    for i in range(len(p)):
        sp += p[i]
        sq += q[i]
        if sp < sq:
            return False
    return True


def jantzen_successors(p: Partition, e: int) -> frozenset[Partition]:
    """All partitions reachable from p by one bead-swap step.

    Two beads of the size-t beta-set trade a displacement of i*e: bead a
    moves down to a - i*e and bead b - i*e moves up to b, with both target
    slots empty.  t = |p| + l(p) is large enough to expose every step, and
    by shift compatibility the resulting set does not depend on t.
    """
    check_e(e)
    n, l = sum(p), len(p)
    t = n + l
    if t == 0:
        return frozenset()
    beads = beta_set(p, t)
    out = set()
    for a in beads:
        for i in range(1, a // e + 1):
            if a - i * e in beads:
                continue
            for c in beads:  # c plays b - i*e
                if c == a:
                    continue
                b = c + i * e
                if b >= a or b == a - i * e or b in beads:
                    continue
                new_beads = (beads - {a, c}) | {b, a - i * e}
                out.add(partition_from_beta(new_beads))
    return frozenset(out)


def jantzen_reachable(p: Partition, e: int, max_steps: int | None = None) -> frozenset[Partition]:
    """Bounded BFS closure of the step relation, for tests only."""
    seen = {p}
    frontier = {p}
    steps = 0
    while frontier and (max_steps is None or steps < max_steps):
        frontier = {t for s in frontier for t in jantzen_successors(s, e)} - seen
        seen |= frontier
        steps += 1
    return frozenset(seen)


# -- residue-class profiles ---------------------------------------------


@dataclass(frozen=True)
class ResidueProfile:
    """Finitely supported profile of a beta-set read against a residue class.

    The value at i counts beads of the size-t beta-set near i, with the two
    columns of the residue class r merged: positions congruent to r-1 look
    one step up, positions congruent to r look one step down, and all other
    positions count only themselves.
    """

    e: int
    r: int
    t: int
    values: tuple[tuple[int, int], ...]  # sorted (index, value), zeros omitted

    def value(self, i: int) -> int:
        for idx, v in self.values:
            if idx == i:
                return v
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.values)


def residue_profile(p: Partition, e: int, r: int, t: int) -> ResidueProfile:
    if t < len(p):
        raise ValueError(f"profile size {t} is below the number of parts {len(p)}")
    check_residue(e, r)
    beads = beta_set(p, t)
    top = (max(beads) if beads else 0) + 2
    vals = {}
    for i in range(top + 1):
        m = (i - t) % e
        if m == r:
            v = len(beads & {i, i - 1})
        elif m == (r - 1) % e:
            v = len(beads & {i, i + 1})
        else:
            v = len(beads & {i})
        if v:
            vals[i] = v
    return ResidueProfile(e=e, r=r, t=t, values=tuple(sorted(vals.items())))


def compare_classes(p: Partition, q: Partition, e: int, r: int) -> Comparison:
    """Total order of the residue-class profiles of p and q.

    Profiles are aligned at the common size t = max(l(p), l(q)) + 1: once
    both beta-sets carry their zero bead, growing t shifts both profiles by
    one index plus an identical boundary correction, so the verdict is
    stable.  The larger class is the one with the larger value at the
    highest index where the profiles disagree.
    """
    t = max(len(p), len(q)) + 1
    a = residue_profile(p, e, r, t).as_dict()
    b = residue_profile(q, e, r, t).as_dict()
    for i in sorted(set(a) | set(b), reverse=True):
        va, vb = a.get(i, 0), b.get(i, 0)
        if va > vb:
            return Comparison.GREATER
        if va < vb:
            return Comparison.LESS
    return Comparison.EQUAL


# Sizes whose partitions stay memoised; sweeps walk sizes up to a few dozen.
_PARTITION_LEVELS = 64


# typed, so an entry for 3 never answers 3.0, which partitions() refuses
@lru_cache(maxsize=_PARTITION_LEVELS, typed=True)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """Cached tuple of all partitions of n (sweeps iterate these a lot)."""
    return tuple(partitions(n))
