"""Norm counts equal the norms of the enumerated objects they replace."""

import hashlib
from collections import Counter
from itertools import combinations, product

import pytest

from fockpath import bijection
from fockpath.bijection import _plan, left_elements, right_elements
from fockpath.closedform import branching_coefficient, sign_sequence_of
from fockpath.latticepath import collection_norms, latticed_paths, well_nested_collections
from fockpath.signseq import SignSequence, match_pairs, onto, unpaired_plus, valley_set
from fockpath.sweeps import iter_exhaustive_instances, sample_instances


def sign_sequences(max_positions, min_positions=0):
    for k in range(min_positions, max_positions + 1):
        for mask in range(2**k):
            yield SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )


def perfect_matchings(t):
    """Every (A, B) with A among t's minus and B among its plus positions
    whose matching is perfect, the empty one included."""
    minus, plus = sorted(t.minus), sorted(t.plus)
    for r in range(min(len(minus), len(plus)) + 1):
        for a, b in product(combinations(minus, r), combinations(plus, r)):
            m = match_pairs(a, b)
            if not (m.unpaired_openers or m.unpaired_closers):
                yield set(a), set(b)


def enumerated(t, a, b):
    return Counter(c.norm for c in well_nested_collections(t, a, b))


def test_collection_norms_equal_the_enumerated_counts():
    checked = 0
    for t in sign_sequences(9, 1):
        for a, b in perfect_matchings(t):
            assert collection_norms(t, a, b) == enumerated(t, a, b), (t, a, b)
            checked += 1
    assert checked == 23712


def test_collection_norms_with_a_self_paired_column():
    # every column outside A and B, opened and closed at once, on up to 8
    # positions
    checked = 0
    for t in sign_sequences(8, 1):
        for a, b in perfect_matchings(t):
            for c in sorted(set(t.positions) - a - b):
                aa, bb = a | {c}, b | {c}
                assert collection_norms(t, aa, bb) == enumerated(t, aa, bb), (t, aa, bb)
                checked += 1
    assert checked == 31042


def test_collection_norms_of_no_pairs_is_one_empty_collection():
    t = SignSequence(frozenset({2}), frozenset({1}))
    assert collection_norms(t, [], []) == Counter({0: 1})
    assert collection_norms(t, [1], [1]) == Counter({0: 1})


def test_collection_norms_on_600_nested_pairs():
    # neither the nesting forest nor a window's path table is walked by
    # recursion
    k = 600
    chain = SignSequence(frozenset(range(k + 1, 2 * k + 1)), frozenset(range(1, k + 1)))
    # pairs (k - i, k + 1 + i): each window is i downs then i ups, one path
    assert collection_norms(chain, chain.minus, chain.plus) == Counter({k * k: 1})
    # one pair around k up-strokes and then k down-strokes: k + 1 paths
    deep = SignSequence(
        frozenset(range(2, k + 2)) | {2 * k + 2}, frozenset(range(k + 2, 2 * k + 2)) | {1}
    )
    assert collection_norms(deep, [1], [2 * k + 2]) == Counter(
        {1 + 2 * k - 2 * j: 1 for j in range(k + 1)}
    )


def index_set_norms():
    yield from iter_exhaustive_instances(8)
    yield from sample_instances(2000, 14, 2011)


def test_index_set_norms_equal_the_element_counts():
    checked = 0
    for t, a, b in index_set_norms():
        left, right = bijection.index_set_norms(t, a, b)
        assert left == Counter(el.norm for el in left_elements(t, a, b))
        assert right == Counter(el.norm for el in right_elements(t, a, b))
        checked += 1
    assert checked == 9878 + 2000


def definitional_plan(t, a, b):
    """The columns of both index sets straight from their definitions, with
    the shifts as sums over A and B and heights of the generic path."""
    completions = [
        (c, 2 * (sum(1 for y in b if y > c) - sum(1 for x in a if x > c)) + t.height(c) - t.size)
        for c in sorted((t.plus | a) - b) if onto(a, b | {c})
    ]
    valleys = [
        (d, [(dp, 2 * t.height(dp) - t.height(d) - t.size)
             for dp in sorted({d} | {u for u in unpaired_plus(t) if u > d})])
        for d in sorted(valley_set(t)) if onto(a, b | {d})
    ]
    return completions, valleys


def test_the_plan_equals_the_definitional_columns():
    checked = 0
    for t, a, b in [*iter_exhaustive_instances(9), *sample_instances(2000, 14, 2011)]:
        # every instance sits on 1..k, so its positions are its ranks
        assert t.positions == tuple(range(1, len(t.positions) + 1))
        assert _plan(t.word, a, b) == definitional_plan(t, a, b), (t, a, b)
        checked += 1
    assert checked == 35072 + 2000


def test_index_set_norms_on_400_nested_pairs():
    # A is 1..400 and 801, B is 401..800: one completion and one valley,
    # both at 801 and self-paired, over 400 nested pairs whose windows
    # (400 - i, 401 + i) hold i down-strokes and then i up-strokes
    k = 400
    t = SignSequence(frozenset(range(k + 1, 2 * k + 1)), frozenset(range(1, k + 1)) | {2 * k + 1})
    a, b = t.minus, t.plus
    left, right = bijection.index_set_norms(t, a, b)
    assert left == right == Counter({k * k: 1})


def error_of(call):
    with pytest.raises(ValueError) as err:
        call()
    return type(err.value), str(err.value)


BAD_PAIRINGS = [
    ({1, 2}, {5, 7}),  # 7 is no plus position
    ({3, 4}, {5, 1}),  # misplaced on both sides
    ({1, 2}, {5}),  # not perfect
    ({4}, {3}),  # the closer comes first
]


@pytest.mark.parametrize("openers,closers", BAD_PAIRINGS)
def test_counting_and_enumeration_reject_alike(openers, closers):
    t = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))
    assert error_of(lambda: collection_norms(t, openers, closers)) == error_of(
        lambda: well_nested_collections(t, openers, closers)
    )


BAD_INSTANCES = [
    ({3}, set()),  # A not among the minus positions
    ({1}, {2}),  # B not among the plus positions
    ({1, 2}, set()),  # |A| != |B| + 1
    ({4}, {3}),  # A not onto B
]


@pytest.mark.parametrize("a,b", BAD_INSTANCES)
def test_index_set_norms_and_elements_reject_alike(a, b):
    t = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))
    norms = bijection.index_set_norms
    assert error_of(lambda: norms(t, a, b)[0]) == error_of(lambda: left_elements(t, a, b))
    assert error_of(lambda: norms(t, a, b)[1]) == error_of(lambda: right_elements(t, a, b))


# sha256 of the paths of every window on up to 12 positions (8,191 windows),
# as latticed_paths enumerated them before the sign-word table existed.  A
# frozenset's repr follows the set's internal layout, which depends on how
# the set was built, so each path is rendered with its flattened pairs
# sorted; window, pairs and path order are all pinned.
PATHS_DIGEST = "0b7666bb580e4b7bd742d19a5f4bb8070785d7ec04e47f923c128d82e52700e7"


def test_latticed_paths_are_unchanged_on_every_window_up_to_12_positions():
    digest = hashlib.sha256()
    for w in sign_sequences(12):
        paths = latticed_paths(w)
        digest.update(repr([
            (sorted(p.window.plus), sorted(p.window.minus), sorted(p.flattened), p.degenerate)
            for p in paths
        ]).encode())
    assert digest.hexdigest() == PATHS_DIGEST


@pytest.mark.parametrize("call", [
    lambda: sign_sequence_of((3, 0), 2, 0),
    lambda: sign_sequence_of((1, 3), 2, 0),
    lambda: branching_coefficient((1, 3), 2, 0, [2], []),
])
def test_closed_form_entry_points_reject_a_non_partition(call):
    for _ in range(2):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("a,b", BAD_INSTANCES)
def test_index_set_norms_rejects_as_left_elements_does(a, b):
    t = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))
    assert error_of(lambda: bijection.index_set_norms(t, a, b)) == error_of(
        lambda: left_elements(t, a, b)
    )
