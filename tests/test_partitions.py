import pytest
from hypothesis import given, strategies as st

from fockpath.closedform import sign_sequence_of
from fockpath.partitions import (
    Comparison,
    add_cell,
    beta_set,
    boundary_nodes,
    check_e,
    check_partition,
    check_residue,
    compare_classes,
    dominates,
    format_partition,
    jantzen_successors,
    parse_partition,
    partition_from_beta,
    partitions_of,
    removable_nodes,
    addable_nodes,
    residue,
    residue_profile,
)

small_partitions = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


def test_parse_and_format():
    assert parse_partition("4,2,1") == (4, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert format_partition((4, 2, 1)) == "4,2,1"
    assert format_partition(()) == "0"
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_beta_set_examples():
    assert beta_set((3, 1), 3) == frozenset({5, 2, 0})
    assert beta_set((), 4) == frozenset({3, 2, 1, 0})
    assert beta_set((2,), 2) == frozenset({3, 0})
    with pytest.raises(ValueError):
        beta_set((3, 1), 1)


def test_boundary_node_examples():
    removable, indent = boundary_nodes((2, 1), 2, 1)
    assert removable == [(2, 1), (1, 2)]
    assert indent == []
    removable, indent = boundary_nodes((2,), 2, 1)
    assert removable == [(1, 2)]
    assert indent == [(2, 1)]
    removable, indent = boundary_nodes((), 3, 0)
    assert removable == []
    assert indent == [(1, 1)]


def test_dominance_examples():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert dominates((3, 1), (3, 1))
    assert not dominates((2,), (2, 1))  # different sizes never compare


def test_jantzen_examples():
    assert jantzen_successors((2,), 2) == {(1, 1)}
    assert jantzen_successors((), 2) == frozenset()
    assert jantzen_successors((1,), 3) == frozenset()


def test_profile_example():
    prof = residue_profile((2,), 2, 1, 1)
    assert prof.value(0) == 0
    assert prof.value(1) == 1
    assert prof.value(2) == 1
    assert all(prof.value(i) == 0 for i in range(3, 10))
    assert residue_profile((), 2, 0, 0).values == ()


def test_profile_shift_compatibility():
    # growing t shifts the profile by one index; the new zero bead can only
    # disturb index 1 of the larger profile, so compare above that.
    for lam in [(1, 1), (3, 2), (2, 2, 1)]:
        for e in (2, 3):
            for r in range(e):
                t = len(lam)
                small = residue_profile(lam, e, r, t).as_dict()
                big = residue_profile(lam, e, r, t + 1).as_dict()
                shifted = {i + 1: v for i, v in small.items() if i >= 1}
                assert shifted == {i: v for i, v in big.items() if i >= 2}


def test_profile_merges_adjacent_columns():
    # values agree on the two merged indices of each residue class
    for lam in [(3, 1), (2, 2), (4,)]:
        for e in (2, 3):
            for r in range(e):
                t = len(lam) + 2
                prof = residue_profile(lam, e, r, t)
                top = max((i for i, _ in prof.values), default=0) + e
                for i in range(top):
                    j = i + 1
                    if (i - t) % e == (r - 1) % e:
                        assert prof.value(i) == prof.value(j)


def test_class_compare_same_class_after_one_node_move():
    # a one-node move at residue r keeps the residue-class profile
    assert compare_classes((1, 1), (2,), 2, 1) == Comparison.EQUAL
    # but separates the classes at the other residue
    assert compare_classes((2,), (1, 1), 2, 0) == Comparison.GREATER
    assert compare_classes((1, 1), (2,), 2, 0) == Comparison.LESS
    assert compare_classes((3, 1), (3, 1), 2, 1) == Comparison.EQUAL


def test_bounded_reachability_closure():
    from fockpath.partitions import jantzen_reachable

    # at e=2 the only step from (3) swaps displacement 2: (3) -> (1,1,1);
    # (2,1) moves a node between residues and is unreachable
    reach = jantzen_reachable((3,), 2)
    assert reach == {(3,), (1, 1, 1)}
    one_step = jantzen_reachable((3,), 2, max_steps=1)
    assert one_step == {(3,)} | jantzen_successors((3,), 2)
    assert jantzen_reachable((2, 2), 2) == {(2, 2), (2, 1, 1), (1, 1, 1, 1)}
    # reachable partitions never raise any residue-class profile
    for tau in reach:
        for r in (0, 1):
            assert compare_classes((3,), tau, 2, r) != Comparison.LESS


def test_class_order_refines_the_step_relation():
    # one Jantzen step never raises any residue-class profile
    for e in (2, 3):
        for n in range(7):
            for lam in partitions_of(n):
                for tau in jantzen_successors(lam, e):
                    assert dominates(lam, tau) and lam != tau
                    for r in range(e):
                        assert compare_classes(lam, tau, e, r) in (
                            Comparison.GREATER,
                            Comparison.EQUAL,
                        )


@given(small_partitions, st.integers(0, 5))
def test_beta_round_trip(lam, extra):
    for t in (len(lam), len(lam) + 1, len(lam) + extra):
        assert partition_from_beta(beta_set(lam, t)) == lam


@given(small_partitions, st.integers(0, 4))
def test_beta_shift(lam, extra):
    t = len(lam) + extra
    shifted = frozenset(b + 1 for b in beta_set(lam, t)) | {0}
    assert beta_set(lam, t + 1) == shifted


@given(small_partitions, st.sampled_from([2, 3]))
def test_jantzen_successors_are_dominated(lam, e):
    for tau in jantzen_successors(lam, e):
        assert sum(tau) == sum(lam)
        assert dominates(lam, tau)
        assert tau != lam


@given(small_partitions, st.sampled_from([2, 3, 4]))
def test_boundary_nodes_are_usable(lam, e):
    for r in range(e):
        removable, indent = boundary_nodes(lam, e, r)
        cols = [n[1] for n in removable + indent]
        assert len(cols) == len(set(cols))
        for node in removable:
            assert residue(node, e) == r
            assert node in removable_nodes(lam)
        for node in indent:
            assert residue(node, e) == r
            assert node in addable_nodes(lam)


@given(small_partitions)
def test_dominance_is_reflexive_and_antisymmetric(lam):
    assert dominates(lam, lam)
    for mu in partitions_of(sum(lam)):
        if dominates(lam, mu) and dominates(mu, lam):
            assert lam == mu


def test_class_equality_under_same_residue_exchange():
    # adding an indent r-node and removing a removable r-node lands in the
    # same class
    for e in (2, 3):
        for n in range(7):
            for lam in partitions_of(n):
                for r in range(e):
                    removable, indent = boundary_nodes(lam, e, r)
                    from fockpath.closedform import apply_move

                    for x in indent:
                        for y in removable:
                            mu = apply_move(lam, e, r, {x[1]}, {y[1]})
                            assert (
                                compare_classes(mu, lam, e, r) == Comparison.EQUAL
                            )


def _sorted_filter_boundary_nodes(p, e, r):
    """Reference: filter the removable and addable nodes by residue, then
    sort each list by column."""
    removable = sorted((n for n in removable_nodes(p) if residue(n, e) == r), key=lambda n: n[1])
    indent = sorted((n for n in addable_nodes(p) if residue(n, e) == r), key=lambda n: n[1])
    return removable, indent


def test_boundary_nodes_match_the_sorted_filter_reference():
    cases = 0
    for n in range(16):
        for lam in partitions_of(n):
            for e in range(2, 6):
                for r in range(e):
                    assert boundary_nodes(lam, e, r) == _sorted_filter_boundary_nodes(
                        lam, e, r), (lam, e, r)
                    cases += 1
    assert cases == 14 * sum(len(partitions_of(n)) for n in range(16))


def test_add_cell_accepts_exactly_the_addable_nodes():
    for n in range(9):
        for lam in partitions_of(n):
            addable = set(addable_nodes(lam))
            width = lam[0] if lam else 0
            for i in range(-1, len(lam) + 3):
                for j in range(-1, width + 3):
                    if (i, j) in addable:
                        grown = add_cell(lam, (i, j))
                        assert sum(grown) == n + 1
                        assert list(grown) == sorted(grown, reverse=True)
                        assert (i, j) in removable_nodes(grown)
                    else:
                        with pytest.raises(ValueError, match="not an addable node"):
                            add_cell(lam, (i, j))


@pytest.mark.parametrize("parts, message", [
    ((2, 0), "parts must be positive, got 0"),
    ([1, 2], "parts must be weakly decreasing, got (1, 2)"),
    ((3, -1, 2), "parts must be positive, got -1"),
    ((3, 1, 2, 0), "parts must be weakly decreasing, got (3, 1, 2, 0)"),
    ([2.7, 1], "parts must be integers, got 2.7"),
    ((3, 1.5, 1), "parts must be integers, got 1.5"),
    ([1, 2.5], "parts must be integers, got 2.5"),
])
def test_check_partition_messages(parts, message):
    with pytest.raises(ValueError) as info:
        check_partition(parts)
    assert str(info.value) == message


def test_check_partition_normalises_any_iterable_of_ints():
    assert check_partition([3, 3, 1]) == (3, 3, 1)
    assert check_partition(x for x in (4, 2, 2)) == (4, 2, 2)
    assert check_partition(["2", 1.0]) == (2, 1)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition(["x"])


@pytest.mark.parametrize("call, args, message", [
    (boundary_nodes, ((2, 1), 1, 0), "e must be at least 2"),
    (boundary_nodes, ((2, 1), -2, 0), "e must be at least 2"),
    (boundary_nodes, ((2, 1), 2, 2), "residue 2 out of range for e=2"),
    (compare_classes, ((2, 1), (3,), 2, 5), "residue 5 out of range for e=2"),
    (residue_profile, ((2, 1), 0, 0, 3), "e must be at least 2"),
    (residue_profile, ((2, 1), 3, -1, 3), "residue -1 out of range for e=3"),
    (check_residue, (1, 0), "e must be at least 2"),
    (check_residue, (2.5, 0.5), "e must be an integer, got 2.5"),
    (check_residue, (3, 0.5), "residue must be an integer, got 0.5"),
    (check_e, (2.5,), "e must be an integer, got 2.5"),
    (check_e, ("3",), "e must be an integer, got '3'"),
    (sign_sequence_of, ((3, 1), 2.5, 0.5), "e must be an integer, got 2.5"),
    (sign_sequence_of, ((3, 1), 2, 1.0), "residue must be an integer, got 1.0"),
])
def test_every_residue_is_checked_by_check_residue(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message
