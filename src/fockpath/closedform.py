"""The closed formulas: same-residue node moves, decomposition polynomials,
branching coefficients, and the two-sided consistency identity.

A move on a partition adds a set of indent r-nodes and removes a set of
removable r-nodes, all of one residue r; positions are recorded by column.
The decomposition polynomial attached to a move is the norm generating
function of the well-nested collections of the move's sign sequence, and
is nonzero exactly when the added columns match perfectly onto the removed
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .laurent import LaurentPolynomial, ZERO, _nonzero, quantum_integer
from .latticepath import WellNestedCollection, well_nested_collections
from .partitions import Partition, boundary_nodes, cells, check_e, check_partition, residue
from .signseq import PairingError, SignSequence, bijective, unpaired_plus, valley_set
from . import bijection as _bijection


def sign_sequence_of(lam: Partition, e: int, r: int) -> SignSequence:
    """Columns of removable r-nodes as plus, columns of indent r-nodes as
    minus; the left-to-right order of the nodes is the column order."""
    return _sign_sequence_of(tuple(lam), e, r)


# Sign sequences memoised per (lam, e, r).  A sweep asks for one (lam, r)
# once per move, so its moves share one SignSequence and the positions,
# heights and matching that object caches.  Typed, so that an r of 1.0 is
# refused by the checks on a miss rather than answered from r=1's entry.
_SIGN_SEQUENCE_CACHE = 256


@lru_cache(maxsize=_SIGN_SEQUENCE_CACHE, typed=True)
def _sign_sequence_of(lam: Partition, e: int, r: int) -> SignSequence:
    removable, indent = boundary_nodes(check_partition(lam), e, r)
    return SignSequence(
        frozenset(n[1] for n in removable), frozenset(n[1] for n in indent)
    )


@dataclass(frozen=True)
class MoveSpec:
    """A same-residue node move on lam, recorded by columns.

    ``added`` may overlap ``removed``; only the symmetric difference acts,
    so added - removed must be indent columns and removed - added removable
    columns.
    """

    lam: Partition
    e: int
    r: int
    added: frozenset[int]
    removed: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "lam", check_partition(self.lam))
        object.__setattr__(self, "added", frozenset(self.added))
        object.__setattr__(self, "removed", frozenset(self.removed))
        _check_columns(self.sign_sequence, self.added, self.removed)

    @cached_property
    def sign_sequence(self) -> SignSequence:
        return sign_sequence_of(self.lam, self.e, self.r)

    @cached_property
    def target(self) -> Partition:
        return apply_move(self.lam, self.e, self.r, self.added, self.removed)

    @property
    def is_identity(self) -> bool:
        return self.added == self.removed


def _check_columns(t: SignSequence, added: frozenset[int], removed: frozenset[int]) -> None:
    """The columns a move adds are indent columns of its sign sequence t (its
    minus positions), and those it removes removable ones (plus positions)."""
    if not (added - removed) <= t.minus:
        raise ValueError(f"added columns {sorted(added - removed - t.minus)} are not indent columns")
    if not (removed - added) <= t.plus:
        raise ValueError(
            f"removed columns {sorted(removed - added - t.plus)} are not removable columns"
        )


def apply_move(
    lam: Partition, e: int, r: int, added, removed
) -> Partition:
    """lam with the indent r-nodes in the added columns put in and the
    removable r-nodes in the removed columns taken out; ValueError, as for
    MoveSpec, when those columns are not indent or not removable."""
    added = frozenset(added)
    removed = frozenset(removed)
    # the memo itself: sign_sequence_of's calls per check are a benchmark metric
    _check_columns(_sign_sequence_of(tuple(lam), e, r), added, removed)
    removable, indent = boundary_nodes(lam, e, r)
    row_of = {j: i for i, j in removable + indent}
    rows = [*lam, 0]  # an indent node in column 1 starts the empty row below
    for col in added ^ removed:
        rows[row_of[col] - 1] += 1 if col in added else -1
    return check_partition([row for row in rows if row])


def detect_move(lam: Partition, nu: Partition, e: int) -> MoveSpec | None:
    """Recover the (r, added, removed) move carrying lam to nu, or None.

    Succeeds exactly when the cells of the diagram difference share one
    residue r; then nu gains indent r-nodes of lam and loses removable ones.
    """
    check_e(e)
    lam = check_partition(lam)
    nu = check_partition(nu)
    if sum(lam) != sum(nu):
        raise ValueError(f"size mismatch: |{lam}| != |{nu}|")
    if lam == nu:
        return MoveSpec(lam=lam, e=e, r=0, added=frozenset(), removed=frozenset())
    gained = set(cells(nu)) - set(cells(lam))
    lost = set(cells(lam)) - set(cells(nu))
    residues = {residue(n, e) for n in gained | lost}
    if len(residues) != 1:
        return None
    r = residues.pop()
    # Cells of one residue are never adjacent (e >= 2), so every gained cell
    # is an indent r-node of lam, every lost cell a removable one, and no two
    # share a column; MoveSpec still checks the columns.
    return MoveSpec(lam, e, r, frozenset(n[1] for n in gained), frozenset(n[1] for n in lost))


def decomposition_paths(move: MoveSpec) -> tuple[WellNestedCollection, ...]:
    """The well-nested collections indexing the move's polynomial; empty
    when the added columns do not match perfectly onto the removed ones."""
    try:
        return well_nested_collections(move.sign_sequence, move.added, move.removed)
    except PairingError:  # MoveSpec checked the columns: the matching is imperfect
        return ()


def decomposition_polynomial(move: MoveSpec) -> LaurentPolynomial:
    """Sum of v^norm over the move's well-nested collections.

    Equals 1 for the identity move and lies in v*N0[v] for any nonempty
    move; 0 when the matching of added to removed columns is imperfect.
    """
    return norm_polynomial(decomposition_paths(move))


def norm_polynomial(items: Iterable) -> LaurentPolynomial:
    """Sum of v^norm over items carrying a ``norm`` (well-nested
    collections, left or right elements); 0 when there are none."""
    counts: dict[int, int] = {}
    for item in items:
        norm = item.norm
        counts[norm] = counts.get(norm, 0) + 1
    # the counts are positive ints: the ring operations' constructor suffices
    return _nonzero(counts)


def branching_coefficient(
    lam: Partition, e: int, r: int, added, removed
) -> LaurentPolynomial:
    """Coefficient of the moved target in f_r applied to a canonical element.

    Zero unless the move adds a single node whose column is a valley of the
    sign sequence (and removes nothing); then it is the quantum integer of
    one plus the number of unpaired plus columns to the right.  Raises
    ValueError, as ``consistency_sums`` does, unless added and removed are
    an induction instance of the sign sequence.
    """
    added = frozenset(added)
    removed = frozenset(removed)
    t = sign_sequence_of(lam, e, r)
    _bijection._check_instance(t, added, removed)
    if removed or len(added) != 1:
        return ZERO
    (a,) = added
    if a not in valley_set(t):
        return ZERO
    k = 1 + len([u for u in unpaired_plus(t) if u > a])
    return quantum_integer(k)


def consistency_sums(
    lam: Partition, e: int, r: int, added, removed
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Both closed-form evaluations of the same induction coefficient.

    The left sum expands over single-column completions of the move; the
    right sum expands over valley insertions weighted by quantum-integer
    monomials.  The two generating functions agree (that identity is what
    the norm-preserving bijection certifies), including for e-singular lam.
    """
    left, right = _bijection.index_set_norms(sign_sequence_of(lam, e, r), added, removed)
    return LaurentPolynomial(left), LaurentPolynomial(right)


def delete_first_row(lam: Partition) -> Partition:
    if not lam:
        raise ValueError("the empty partition has no first row")
    return lam[1:]


def admissible_moves(lam: Partition, e: int, r: int) -> list[MoveSpec]:
    """All moves from lam at residue r with a perfect added/removed matching
    (the identity move included)."""
    out = []
    for a, b in column_sets(sign_sequence_of(lam, e, r), 0):
        if bijective(a, b):
            out.append(MoveSpec(lam, e, r, a, b))
    return out


def column_sets(
    t: SignSequence, surplus: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (A, B) with A among t's minus positions, B among its plus
    positions and |A| = |B| + surplus, as sorted tuples: by increasing |B|,
    lexicographically within one size.  Sweeps filter these with their own
    predicate (bijective for moves, onto for induction instances)."""
    minus, plus = sorted(t.minus), sorted(t.plus)
    for k in range(min(len(plus), len(minus) - surplus) + 1):
        for a in combinations(minus, k + surplus):
            for b in combinations(plus, k):
                yield a, b
