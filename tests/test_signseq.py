from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from fockpath.signseq import (
    SignSequence,
    bijective,
    bracket_pairs,
    match_pairs,
    onto,
    preceq,
    unpaired_plus,
    valley_set,
)

position_sets = st.frozensets(st.integers(-10, 10), max_size=6)


def test_worked_pairing_example():
    m = match_pairs({2, 3, 10}, {5, 6, 8})
    assert m.pairs == ((2, 6), (3, 5))
    assert m.unpaired_openers == {10}
    assert m.unpaired_closers == {8}
    assert not onto({2, 3, 10}, {5, 6, 8})
    assert not bijective({2, 3, 10}, {5, 6, 8})


def test_self_pairing_extension():
    m = match_pairs({1}, {1})
    assert m.self_paired == {1}
    assert not m.pairs
    assert onto({1}, {1}) and bijective({1}, {1})


def test_nested_pairs():
    m = match_pairs({1, 2}, {4, 6})
    assert m.pairs == ((1, 6), (2, 4))
    assert bijective({1, 2}, {4, 6})


def test_onto_trivia():
    assert onto(set(), set())
    assert onto({1}, {2})
    assert not onto({2}, {1})


def test_valley_and_unpaired_examples():
    t = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    assert valley_set(t) == {8}
    assert unpaired_plus(t) == {9}
    assert valley_set(SignSequence(frozenset({2}), frozenset({1}))) == {1}
    assert unpaired_plus(SignSequence(frozenset({2}), frozenset({1}))) == {2}
    assert valley_set(SignSequence(frozenset(), frozenset())) == frozenset()
    assert unpaired_plus(SignSequence(frozenset(), frozenset({1, 4}))) == frozenset()


def test_subsequence_windows():
    t = SignSequence(frozenset({2}), frozenset({1}))
    assert t.restrict(1, 2).positions == ()
    assert t.restrict(1, 3).plus == {2}
    assert t.restrict(1, 3).minus == frozenset()
    big = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    suf = big.restrict(lower=7)
    assert suf.plus == {9} and suf.minus == {8}
    assert big.size == -1
    with pytest.raises(ValueError):
        SignSequence(frozenset({1}), frozenset({1}))


def test_preceq_basics():
    assert preceq({1}, set(), {1}, set())
    assert preceq(set(), set(), set(), set())
    # with openers {4,6} and closers {1,2}: exactly one strict direction holds
    a, b = ({4}, set()), ({6}, set())
    forward = preceq(a[0], a[1], b[0], b[1])
    backward = preceq(b[0], b[1], a[0], a[1])
    assert forward != backward


@given(position_sets, position_sets)
def test_onto_matches_prefix_condition(a, b):
    prefix = all(
        len([x for x in a if x <= n]) >= len([x for x in b if x <= n])
        for n in a | b
    )
    assert onto(a, b) == prefix


@given(position_sets, position_sets)
def test_matching_partitions_the_input(a, b):
    m = match_pairs(a, b)
    openers = {u for u, _ in m.pairs} | m.unpaired_openers | m.self_paired
    closers = {w for _, w in m.pairs} | m.unpaired_closers | m.self_paired
    assert openers == a
    assert closers == b
    for u, w in m.pairs:
        assert u < w


@given(position_sets, position_sets)
def test_pairs_never_cross(a, b):
    m = match_pairs(a, b)
    for p in m.pairs:
        for q in m.pairs:
            if p == q:
                continue
            nested = (p[0] < q[0] and q[1] < p[1]) or (q[0] < p[0] and p[1] < q[1])
            disjoint = p[1] < q[0] or q[1] < p[0]
            assert nested or disjoint


@given(position_sets, position_sets)
def test_bijective_needs_equal_sizes(a, b):
    if bijective(a, b):
        assert len(a) == len(b)
        assert onto(a, b)


@given(position_sets)
def test_last_minus_is_a_valley(minus):
    t = SignSequence(frozenset(), minus)
    if minus:
        assert max(minus) in valley_set(t)


def _poset_elements(xs, ys):
    elements = []
    for ka in range(len(xs) + 1):
        for a in combinations(xs, ka):
            for kb in range(len(ys) + 1):
                for b in combinations(ys, kb):
                    if onto(a, b):
                        elements.append((frozenset(a), frozenset(b)))
    return elements


def check_partial_order(xs, ys):
    elements = _poset_elements(xs, ys)
    rel = {}
    for p in elements:
        rel[p] = {q for q in elements if preceq(p[0], p[1], q[0], q[1])}
    for p in elements:
        assert p in rel[p]
        for q in rel[p]:
            if p in rel[q]:
                assert p == q
            for s in rel[q]:
                assert s in rel[p]


def test_preceq_is_a_partial_order_small():
    # exhaustive on interleaving patterns with up to 3 of each letter
    for k in range(1, 7):
        for mask in range(2**k):
            xs = tuple(i + 1 for i in range(k) if mask >> i & 1)
            ys = tuple(i + 1 for i in range(k) if not mask >> i & 1)
            if not xs or not ys or len(xs) > 3 or len(ys) > 3:
                continue
            check_partial_order(xs, ys)


# -- the cached core against its definitional versions ----------------------


def _all_contiguous(max_positions):
    """Every sign sequence on 1..k for k <= max_positions, the empty one
    included."""
    yield SignSequence(frozenset(), frozenset())
    for k in range(1, max_positions + 1):
        for mask in range(2**k):
            yield SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )


def _seeded_scattered(count, seed=2011):
    """Sign sequences on non-contiguous, possibly negative positions."""
    import random

    rng = random.Random(seed)
    for _ in range(count):
        positions = rng.sample(range(-15, 16), rng.randint(0, 12))
        plus = frozenset(p for p in positions if rng.random() < 0.5)
        yield SignSequence(plus, frozenset(positions) - plus)


def _reference_valley_set(t):
    return frozenset(
        v for v in t.minus
        if not match_pairs(t.restrict(lower=v).plus, t.restrict(lower=v).minus).unpaired_closers
    )


def _reference_restrict(t, lower=None, upper=None, include_upper=False):
    def keep(x):
        if lower is not None and x <= lower:
            return False
        if upper is not None and (x > upper or (x == upper and not include_upper)):
            return False
        return True

    return SignSequence(
        frozenset(x for x in t.plus if keep(x)), frozenset(x for x in t.minus if keep(x))
    )


def test_valley_set_matches_suffix_matching_exhaustively():
    sequences = list(_all_contiguous(10))
    assert len(sequences) == 2047
    for t in sequences:
        assert valley_set(t) == _reference_valley_set(t)


def test_valley_set_matches_suffix_matching_on_scattered_positions():
    for t in _seeded_scattered(500):
        assert valley_set(t) == _reference_valley_set(t)


def test_restrict_views_and_heights_match_the_predicate_filter():
    for t in list(_all_contiguous(6)) + list(_seeded_scattered(150)):
        cuts = sorted({p + d for p in t.positions for d in (-1, 0, 1)} | {0})
        for x in cuts:
            assert t.restrict(lower=x) == _reference_restrict(t, lower=x)
            assert t.restrict(upper=x) == _reference_restrict(t, upper=x)
            assert t.height(x) == _reference_restrict(t, upper=x, include_upper=True).size
            assert t.height(x) + t.restrict(lower=x).size == t.size
            for y in cuts:
                assert t.restrict(x, y) == _reference_restrict(t, lower=x, upper=y)
                assert t.restrict(x, y + 1) == _reference_restrict(
                    t, lower=x, upper=y, include_upper=True
                )
                window = t.restrict(x, y + 1)
                assert window.positions == tuple(sorted(window.plus | window.minus))
                if x <= y:
                    assert t.restrict(x, y + 1).size == t.height(y) - t.height(x)


def test_rank_and_prefix_heights_follow_the_positions():
    t = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    assert [t.ranks[p] for p in t.positions] == list(range(1, 10))
    assert t.prefix_heights == (0, -1, 0, 1, 0, 1, 0, -1, -2, -1)
    with pytest.raises(KeyError):
        t.ranks[10]


def _definitional_matching(a, b):
    """Each closer, left to right, takes the nearest unmatched opener on its
    left; an element of both sets pairs with itself.  Pairs sorted by opener,
    then the unmatched openers and closers, ascending."""
    common = a & b
    free = sorted(a - common)
    pairs = [(x, x) for x in common]
    lone = []
    for w in sorted(b - common):
        left = [u for u in free if u < w]
        if left:
            free.remove(left[-1])
            pairs.append((left[-1], w))
        else:
            lone.append(w)
    return sorted(pairs), free, lone


def test_bracket_pairs_and_match_pairs_are_the_definitional_matching():
    subsets = [frozenset(x for x in range(1, 8) if mask >> (x - 1) & 1) for mask in range(128)]
    for a in subsets:
        for b in subsets:
            want, free, lone = _definitional_matching(a, b)
            genuine = [(u, w) for u, w in want if u != w]
            pairs, lone_openers, lone_closers = bracket_pairs(a, b)
            assert [(u, w) for u, w, _ in pairs] == want
            assert (lone_openers, lone_closers) == (free, lone)
            for u, w, parent in pairs:
                # the innermost enclosing genuine pair has the largest opener
                enclosing = [p for p in genuine if p[0] < u and w < p[1]]
                assert parent == (want.index(max(enclosing)) if enclosing and u != w else -1)
            m = match_pairs(a, b)
            assert m.pairs == tuple(genuine)
            assert m.self_paired == a & b
            assert (m.unpaired_openers, m.unpaired_closers) == (set(free), set(lone))


@given(position_sets, position_sets)
def test_onto_and_bijective_agree_with_the_matching(a, b):
    m = match_pairs(a, b)
    assert onto(a, b) == (not m.unpaired_closers)
    assert bijective(a, b) == (not m.unpaired_openers and not m.unpaired_closers)


def test_cached_fields_leave_equality_hash_and_repr_alone():
    t = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    fresh = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    before = (hash(t), repr(t))
    t.positions, t.prefix_heights, t.matching(), valley_set(t), t.restrict(1, 9)
    assert set(vars(t)) > {"plus", "minus"}
    assert (hash(t), repr(t)) == before == (hash(fresh), repr(fresh))
    assert t == fresh and not t != fresh
    assert repr(t) == f"SignSequence(plus={t.plus!r}, minus={t.minus!r})"
    assert hash(t) == hash((t.plus, t.minus))
    window = t.restrict(1, 9)
    assert window == SignSequence(window.plus, window.minus)
    assert hash(window) == hash((window.plus, window.minus))


def test_ranks_are_the_read_only_inverse_of_the_positions():
    t = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    for window in (t, t.restrict(1, 9), SignSequence(frozenset({-4, 10}), frozenset({0}))):
        assert dict(window.ranks) == {p: r for r, p in enumerate(window.positions, 1)}
        assert [window.positions[window.ranks[p] - 1] for p in window.positions] == list(
            window.positions
        )
    with pytest.raises(TypeError):
        t.ranks[10] = 10
    with pytest.raises(KeyError):
        t.ranks[10]
