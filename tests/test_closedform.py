from itertools import chain, combinations

import pytest

from fockpath.closedform import (
    MoveSpec,
    admissible_moves,
    apply_move,
    branching_coefficient,
    column_sets,
    consistency_sums,
    decomposition_paths,
    decomposition_polynomial,
    delete_first_row,
    detect_move,
    norm_polynomial,
    sign_sequence_of,
)
from fockpath.fockspace import get_oracle, is_e_regular
from fockpath.laurent import LaurentPolynomial, ONE, ZERO, quantum_integer
from fockpath.partitions import boundary_nodes, cells, partitions_of, residue
from fockpath.signseq import SignSequence

V = LaurentPolynomial.variable()


def test_sign_sequence_of_examples():
    assert sign_sequence_of((2,), 2, 1) == SignSequence(frozenset({2}), frozenset({1}))
    assert sign_sequence_of((2, 1), 2, 1) == SignSequence(frozenset({1, 2}), frozenset())
    assert sign_sequence_of((), 4, 0) == SignSequence(frozenset(), frozenset({1}))


def test_detect_move_examples():
    move = detect_move((2,), (1, 1), 2)
    assert (move.r, move.added, move.removed) == (1, {1}, {2})
    identity = detect_move((3, 1), (3, 1), 2)
    assert identity.added == identity.removed == frozenset()
    assert detect_move((3,), (1, 1, 1), 3) is None
    with pytest.raises(ValueError):
        detect_move((2,), (1,), 2)


def test_apply_move_round_trips_detect():
    for e in (2, 3):
        for n in range(8):
            for lam in partitions_of(n):
                for r in range(e):
                    for move in admissible_moves(lam, e, r, max_size=2):
                        target = move.target
                        assert sum(target) == n
                        if move.is_identity:
                            assert target == lam
                        else:
                            found = detect_move(lam, target, e)
                            assert found is not None
                            assert found.added == move.added - move.removed
                            assert found.removed == move.removed - move.added


def test_detect_move_finds_exactly_the_single_residue_differences():
    moves = 0
    for e in (2, 3, 4):
        for n in range(9):
            labels = list(partitions_of(n))
            for lam in labels:
                for nu in labels:
                    differing = set(cells(lam)) ^ set(cells(nu))
                    move = detect_move(lam, nu, e)
                    assert (move is not None) == (len({residue(c, e) for c in differing}) <= 1)
                    if move is not None:
                        assert move.target == nu
                        moves += not move.is_identity
    assert moves > 0


def test_a_move_changes_the_first_row_exactly_when_it_moves_a_first_row_node():
    seen = set()
    for e in (2, 3):
        for n in range(9):
            for lam in partitions_of(n):
                for r in range(e):
                    removable, indent = boundary_nodes(lam, e, r)
                    row_of = {j: i for i, j in removable + indent}
                    for move in admissible_moves(lam, e, r):
                        moved = any(row_of[c] == 1 for c in move.added ^ move.removed)
                        assert (move.target[:1] != lam[:1]) == moved
                        seen.add(moved)
    assert seen == {False, True}


def test_decomposition_examples():
    assert decomposition_polynomial(MoveSpec((2,), 2, 1, {1}, {2})) == V
    assert decomposition_polynomial(MoveSpec((2,), 2, 1, frozenset(), frozenset())) == ONE
    assert decomposition_polynomial(MoveSpec((3, 1), 2, 1, {4}, {1})) == ZERO
    assert len(decomposition_paths(MoveSpec((2,), 2, 1, {1}, {2}))) == 1


def test_overlapping_columns_reduce_to_effective_move():
    # a column both added and removed self-pairs and contributes norm zero
    lam = (3, 1)
    assert sign_sequence_of(lam, 2, 0) == SignSequence(frozenset({3}), frozenset({1, 2}))
    plain = MoveSpec(lam, 2, 0, {1}, {3})
    padded = MoveSpec(lam, 2, 0, {1, 2}, {3, 2})
    assert padded.target == plain.target == (2, 1, 1)
    assert decomposition_polynomial(padded) == decomposition_polynomial(plain)


def test_branching_examples():
    assert branching_coefficient((2,), 2, 1, {1}, set()) == quantum_integer(2)
    assert branching_coefficient((), 2, 0, {1}, set()) == ONE
    # single added column that is not a valley
    t = sign_sequence_of((2, 1), 3, 0)
    from fockpath.signseq import valley_set

    non_valleys = sorted(t.minus - valley_set(t))
    if non_valleys:
        assert branching_coefficient((2, 1), 3, 0, {non_valleys[0]}, set()) == ZERO
    with pytest.raises(ValueError):
        branching_coefficient((2,), 2, 1, {1}, {2})


def test_consistency_examples():
    lhs, rhs = consistency_sums((2,), 2, 1, {1}, set())
    assert lhs == rhs == LaurentPolynomial({-1: 1, 1: 1})
    lhs, rhs = consistency_sums((), 2, 0, {1}, set())
    assert lhs == rhs == ONE


def test_consistency_rejects_bad_instances():
    from itertools import combinations

    from fockpath.signseq import onto as onto_check

    # wrong size step
    with pytest.raises(ValueError):
        consistency_sums((2, 1), 2, 1, {1}, {2})
    # the first added-onto-removed violation found must raise
    found = 0
    for e in (2, 3):
        for n in range(8):
            for lam in partitions_of(n):
                for r in range(e):
                    t = sign_sequence_of(lam, e, r)
                    for k in range(min(len(t.plus) + 1, len(t.minus))):
                        for a in combinations(sorted(t.minus), k + 1):
                            for b in combinations(sorted(t.plus), k):
                                if onto_check(a, b):
                                    continue
                                with pytest.raises(ValueError):
                                    consistency_sums(lam, e, r, a, b)
                                found += 1
    assert found > 0


def test_branching_values_are_bar_symmetric_and_nonnegative():
    from itertools import combinations

    from fockpath.signseq import onto as onto_check

    for e in (2, 3):
        for n in range(7):
            for lam in partitions_of(n):
                for r in range(e):
                    t = sign_sequence_of(lam, e, r)
                    minus, plus = sorted(t.minus), sorted(t.plus)
                    for k in range(min(len(plus) + 1, len(minus))):
                        for a in combinations(minus, k + 1):
                            for b in combinations(plus, k):
                                if not onto_check(a, b):
                                    continue
                                value = branching_coefficient(lam, e, r, a, b)
                                assert value.bar() == value
                                assert all(c >= 0 for _, c in value.items())


def test_formula_matches_oracle_small():
    for e, max_n in ((2, 9), (3, 8), (4, 7)):
        oracle = get_oracle(e)
        for n in range(max_n + 1):
            for lam in partitions_of(n):
                if not is_e_regular(lam, e):
                    continue
                for r in range(e):
                    for move in admissible_moves(lam, e, r):
                        assert decomposition_polynomial(move) == oracle.coefficient(
                            move.target, lam
                        ), (lam, e, r, move.added, move.removed)


def test_nonzero_moves_dominate():
    from fockpath.partitions import dominates

    for e in (2, 3):
        for n in range(8):
            for lam in partitions_of(n):
                for r in range(e):
                    for move in admissible_moves(lam, e, r):
                        if decomposition_polynomial(move):
                            assert dominates(lam, move.target)


def test_first_row_removal():
    for e in (2, 3):
        for n in range(2, 9):
            for lam in partitions_of(n):
                if not lam:
                    continue
                for r in range(e):
                    from fockpath.partitions import boundary_nodes

                    removable, indent = boundary_nodes(lam, e, r)
                    rows = {c[1]: c[0] for c in removable + indent}
                    for move in admissible_moves(lam, e, r, max_size=2):
                        if move.is_identity:
                            continue
                        if any(rows[c] == 1 for c in move.added ^ move.removed):
                            continue
                        trimmed = MoveSpec(
                            delete_first_row(lam), e, (r + 1) % e, move.added, move.removed
                        )
                        assert decomposition_polynomial(move) == decomposition_polynomial(
                            trimmed
                        )


@pytest.mark.parametrize(
    "plus, minus",
    [
        ({2, 5}, {1, 3, 4}),
        ({1, 2, 3}, set()),
        (set(), {1, 4}),
        (set(), set()),
        ({3, 4, 6}, {1, 2, 5, 7}),
    ],
)
@pytest.mark.parametrize("surplus", [0, 1, 2, 5])
def test_column_sets_is_the_ordered_subset_filter(plus, minus, surplus):
    def subsets(xs):
        xs = sorted(xs)
        return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))

    brute = sorted(
        ((a, b) for a in subsets(minus) for b in subsets(plus) if len(a) == len(b) + surplus),
        key=lambda ab: (len(ab[1]), ab),
    )
    assert list(column_sets(SignSequence(plus, minus), surplus)) == brute


def test_norm_polynomial_of_nothing_is_zero():
    assert norm_polynomial(()) == ZERO
    assert norm_polynomial(()).is_zero


def _rejection(call, *args):
    try:
        call(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def test_branching_rejects_an_instance_as_consistency_does():
    with pytest.raises(ValueError, match=r"^A=\[5\] must consist of minus positions$"):
        branching_coefficient((2,), 2, 1, {5}, set())
    reasons = ("must consist of minus positions", "must consist of plus positions",
               "need |A| = |B| + 1", "is not onto")
    seen = set()
    for e in (2, 3):
        for n in range(6):
            for lam in partitions_of(n):
                for r in range(e):
                    t = sign_sequence_of(lam, e, r)
                    # n + 2 is beyond every boundary column of lam
                    positions = sorted(t.plus | t.minus) + [n + 2]
                    subsets = [s for k in range(3) for s in combinations(positions, k)]
                    for a in subsets:
                        for b in subsets[:len(positions) + 1]:  # |B| <= 1
                            want = _rejection(consistency_sums, lam, e, r, a, b)
                            assert _rejection(branching_coefficient, lam, e, r, a, b) == want
                            if want:
                                seen.update(x for x in reasons if x in want[1])
    assert seen == set(reasons)


@pytest.mark.parametrize("added, removed, message", [
    ({99}, set(), "added columns [99] are not indent columns"),
    (set(), {99}, "removed columns [99] are not removable columns"),
    ({3}, set(), "added columns [3] are not indent columns"),
    (set(), {1}, "removed columns [1] are not removable columns"),
])
def test_apply_move_rejects_columns_as_move_spec_does(added, removed, message):
    for call in (apply_move, MoveSpec):
        with pytest.raises(ValueError) as info:
            call((3, 1), 2, 0, added, removed)
        assert str(info.value) == message
