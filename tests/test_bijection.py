import dataclasses
import hashlib
import importlib.util
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fockpath import bijection, sweeps
from fockpath.bijection import (
    ConstructionError,
    LeftElement,
    RightElement,
    _checked,
    _reaim,
    build_bijection,
    left_elements,
    norm_multisets_match,
    right_elements,
)
from fockpath.latticepath import LatticedPath, WellNestedCollection, is_well_nested, masks_well_nested
from fockpath.signseq import SignSequence, onto
from fockpath.sweeps import (
    BijectionSweepConfig,
    iter_exhaustive_instances,
    run_bijection_sweep,
    sample_instances,
)


def test_single_pair_example():
    t = SignSequence(frozenset({2}), frozenset({1}))
    lefts = left_elements(t, {1}, set())
    rights = right_elements(t, {1}, set())
    assert sorted(el.norm for el in lefts) == [-1, 1]
    assert sorted(el.norm for el in rights) == [-1, 1]
    self_el = next(el for el in lefts if el.position == 1)
    assert self_el.norm == -1


def test_lonely_minus_example():
    t = SignSequence(frozenset(), frozenset({1}))
    (left,) = left_elements(t, {1}, set())
    (right,) = right_elements(t, {1}, set())
    assert left.norm == right.norm == 0
    mapping = build_bijection(t, {1}, set())
    assert mapping == {left: right}


def test_inadmissible_valleys_are_filtered():
    # 2 is a valley but fails the onto filter once inserted; 4 survives
    t = SignSequence(frozenset({1, 3}), frozenset({2, 4}))
    rights = right_elements(t, {2, 4}, {3})
    assert rights
    assert {el.valley for el in rights} == {4}


def test_preconditions_are_enforced():
    t = SignSequence(frozenset({2}), frozenset({1}))
    with pytest.raises(ValueError):
        left_elements(t, {2}, set())  # added column is not a minus position
    with pytest.raises(ValueError):
        left_elements(t, {1}, {2, 3})  # sizes wrong / not plus subset
    with pytest.raises(ValueError):
        right_elements(SignSequence(frozenset({1}), frozenset({2})), {2}, {1})
    with pytest.raises(ValueError):
        norm_multisets_match(t, set(), set())  # the added set is never empty


def test_base_case_map_shapes():
    t = SignSequence(frozenset({2}), frozenset({1}))
    mapping = build_bijection(t, {1}, set())
    by_pos = {el.position: img for el, img in mapping.items()}
    assert (by_pos[1].valley, by_pos[1].marker) == (1, 1)
    assert (by_pos[2].valley, by_pos[2].marker) == (1, 2)


def test_bijection_verifies_norms_and_sets():
    t = SignSequence(frozenset({3, 5}), frozenset({1, 2, 4}))
    mapping = build_bijection(t, {1}, set())
    assert Counter(el.norm for el in mapping) == Counter(
        img.norm for img in mapping.values()
    )
    assert set(mapping.values()) == set(right_elements(t, {1}, set()))


def test_strip_case_with_interior_valley():
    # the stripped pair encloses a valley; the carrier surgery must cover it
    t = SignSequence(frozenset({5, 6}), frozenset({1, 3, 4}))
    mapping = build_bijection(t, {1, 3}, {5})
    assert len(mapping) == len(left_elements(t, {1, 3}, {5}))


def test_split_case_small():
    # every added/removed pair encloses a plus: the split reduction runs
    t = SignSequence(frozenset({2, 4}), frozenset({1, 3}))
    mapping = build_bijection(t, {1, 3}, {4})
    assert mapping


def test_exhaustive_small_instances():
    for t, a, b in iter_exhaustive_instances(6):
        assert norm_multisets_match(t, a, b)
        mapping = build_bijection(t, a, b)
        assert len(mapping) == len(left_elements(t, a, b))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_sampled_instances_match(seed):
    for t, a, b in sample_instances(3, 10, seed):
        assert norm_multisets_match(t, a, b)


def test_the_bijection_sweep_rejects_samples_on_fewer_than_two_positions(monkeypatch):
    checked = []

    def index_set_norms(t, a, b):
        checked.append((t, a, b))
        return Counter(), Counter()

    monkeypatch.setattr(sweeps, "index_set_norms", index_set_norms)
    cfg = BijectionSweepConfig(max_positions=3, samples=2, sample_positions=1)
    with pytest.raises(ValueError, match="^sample_positions must be at least 2, got 1$"):
        run_bijection_sweep(cfg)
    assert checked == []  # before the first instance, exhaustive ones included
    assert run_bijection_sweep(dataclasses.replace(cfg, samples=0)).checked == len(checked) > 0


def test_generating_functions_match_consistency_sums():
    # the two norm generating functions are the two sides of the
    # partition-level identity
    from fockpath.closedform import consistency_sums, sign_sequence_of
    from fockpath.laurent import LaurentPolynomial, ZERO

    lam, e, r = (2, 1), 3, 0
    t = sign_sequence_of(lam, e, r)
    a = {min(t.minus)}
    lhs, rhs = consistency_sums(lam, e, r, a, set())
    total_l = ZERO
    for el in left_elements(t, a, set()):
        total_l = total_l + LaurentPolynomial.monomial(el.norm)
    total_r = ZERO
    for el in right_elements(t, a, set()):
        total_r = total_r + LaurentPolynomial.monomial(el.norm)
    assert (lhs, rhs) == (total_l, total_r)


# -- failure paths of the shared reduction steps ------------------------------

NESTED_T = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))


def _window(lo, hi, flattened=()):
    return (lo, hi, LatticedPath(NESTED_T.between(lo, hi), frozenset(flattened)))


def test_checked_rejects_a_changed_pairing():
    entries = [_window(2, 5), _window(1, 6)]
    with pytest.raises(ConstructionError) as info:
        _checked(NESTED_T, entries, {1, 2}, {3, 6}, "strip-pairing")
    assert info.value.corner == "strip-pairing"


def test_checked_rejects_masks_that_are_not_well_nested():
    # NESTED_T sits on positions 1..6, so its positions are its ranks; the
    # inner window dips below the generic outer one at its flattened pair
    assert not is_well_nested(NESTED_T, [_window(1, 6), _window(2, 5, {(3, 4)})])
    entries = [(1, 6, 0), (2, 5, 1 << 3)]
    assert not masks_well_nested(NESTED_T.word, entries)
    args = (NESTED_T.word, entries, {1, 2}, {5, 6})
    with pytest.raises(ConstructionError) as info:
        _checked(*args, "split-pairing")
    assert info.value.corner == "split-pairing"
    with pytest.raises(ConstructionError) as info:
        _checked(*args, "strip-pairing", nested_corner="strip")
    assert info.value.corner == "strip"


@pytest.mark.parametrize(
    "entries",
    [[(1, 6, 0)], [(1, 6, 0), (2, 5, 0), (3, 3, 0)]],
    ids=["a-scanned-pair-missing", "an-extra-self-pair"],
)
def test_checked_rejects_entries_whose_pairs_differ_from_the_scan(entries):
    # the scan of {1, 2} against {5, 6} pairs 1 with 6 and 2 with 5
    with pytest.raises(ConstructionError) as info:
        _checked(NESTED_T.word, entries, {1, 2}, {5, 6}, "split-pairing")
    assert info.value.corner == "split-pairing"


def test_reaim_rejects_a_flattened_mask_past_the_new_closer():
    entries = [(1, 6, 0), (2, 5, 1 << 3)]
    with pytest.raises(ConstructionError) as info:
        _reaim(NESTED_T.word, entries, 5, 4, "strip-truncation")
    assert info.value.corner == "strip-truncation"


# -- where a construction failure is reported ---------------------------------


@pytest.fixture
def no_deep_nesting(monkeypatch):
    """A planted fault: no collection of 3 or more entries is well-nested.
    Every build starts from an empty memo, so each instance fails afresh."""
    original = bijection.masks_well_nested
    monkeypatch.setattr(
        bijection, "masks_well_nested",
        lambda word, entries: len(entries) < 3 and original(word, entries),
    )
    yield bijection._build.cache_clear
    bijection._build.cache_clear()


def test_a_failure_is_reported_against_the_shape_that_failed(no_deep_nesting):
    no_deep_nesting()
    t = SignSequence(frozenset({4, 5, 6}), frozenset({1, 2, 3, 7}))
    with pytest.raises(ConstructionError) as info:
        build_bijection(t, {1, 2, 3, 7}, {4, 5, 6})
    assert info.value.corner == "split-pairing"
    # the sub-shape the split reached, not the instance asked for
    assert str(info.value).endswith("(plus=[4, 5, 6], minus=[1, 2, 3, 7], A=[1, 2, 7], B=[5, 6])")


def test_planted_failures_keep_their_corners_and_messages(no_deep_nesting):
    messages, corners = [], Counter()
    for t, a, b in iter_exhaustive_instances(7):
        no_deep_nesting()
        try:
            build_bijection(t, a, b)
        except ConstructionError as exc:
            messages.append(str(exc))
            corners[exc.corner] += 1
    assert corners == {"split-pairing": 33, "strip": 12}
    assert hashlib.sha256("".join(messages).encode()).hexdigest() == (
        "08ab01e2bfc6babb764ee7bddf1fbb6661948e2843f2e7f45609951a3ecd4b69"
    )


def test_the_construction_sweep_tolerates_and_logs_planted_failures(no_deep_nesting):
    # the norm multisets still agree where the planted fault stops a build,
    # so each failure is logged with its corner and none is a sweep failure
    no_deep_nesting()
    report = sweeps.run_construction_sweep(sweeps.ConstructionSweepConfig(max_positions=7))
    assert (report.checked, report.notes["built"]) == (2806, 2761)
    assert report.notes["corners"] == {"split-pairing": 33, "strip": 12}
    assert list(report.notes["corners"]) == ["split-pairing", "strip"]  # first seen first
    logged = report.notes["construction_failures"]
    assert len(logged) == 45 and report.failures == []
    assert Counter(entry["corner"] for entry in logged) == report.notes["corners"]
    assert all(entry["normsL"] == entry["normsR"] for entry in logged)
    assert report.notes["failure_rate"] == pytest.approx(45 / 2806)


def test_index_sets_ignore_the_container_and_repeat_exactly():
    for t, a, b in list(iter_exhaustive_instances(5))[::7]:
        lefts = left_elements(t, frozenset(a), frozenset(b))
        rights = right_elements(t, frozenset(a), frozenset(b))
        for make in (list, set, frozenset, sorted, tuple):
            assert left_elements(t, make(a), make(b)) == lefts
            assert right_elements(t, make(a), make(b)) == rights
        # a copy of t with no cached fields gives the same sets
        assert left_elements(SignSequence(t.plus, t.minus), a, b) == lefts
        assert right_elements(SignSequence(t.plus, t.minus), a, b) == rights
        assert left_elements(t, a, b) == lefts


def test_index_sets_still_check_the_instance_on_repeated_calls():
    t = SignSequence(frozenset({2}), frozenset({1}))
    for _ in range(2):
        with pytest.raises(ValueError):
            left_elements(t, [2], [])
        with pytest.raises(ValueError):
            right_elements(t, {1}, {2})


# -- the explicit map: pinned, order-type equivariant, memo-independent ------


def _map_digest(max_positions):
    h = hashlib.sha256()
    for t, a, b in iter_exhaustive_instances(max_positions):
        mapping = build_bijection(t, a, b)
        for el in sorted(mapping, key=repr):
            h.update((repr(el) + "->" + repr(mapping[el])).encode())
    return h.hexdigest()


def test_explicit_map_is_pinned():
    assert _map_digest(6) == (
        "d5f2dcce15039f0035a64240cfa0ef0b517ac1cffeb745f2f420ebc7849b2741"
    )


def _relabel_collection(coll, f):
    def seq(s):
        return SignSequence(frozenset(map(f, s.plus)), frozenset(map(f, s.minus)))

    return WellNestedCollection(seq(coll.base), tuple(
        (f(x), f(y), LatticedPath(
            seq(path.window),
            frozenset((f(u), f(w)) for u, w in path.flattened),
            path.degenerate,
        ))
        for x, y, path in coll.entries
    ))


def _relabel_map(mapping, f):
    return {
        LeftElement(f(el.position), _relabel_collection(el.collection, f), el.norm):
        RightElement(f(img.valley), f(img.marker),
                     _relabel_collection(img.collection, f), img.norm)
        for el, img in mapping.items()
    }


def test_the_map_depends_only_on_the_order_type():
    def scatter(p):
        return 3 * p + 7

    for t, a, b in iter_exhaustive_instances(6):
        scattered = SignSequence(frozenset(map(scatter, t.plus)), frozenset(map(scatter, t.minus)))
        expected = _relabel_map(build_bijection(t, a, b), scatter)
        assert build_bijection(scattered, map(scatter, a), map(scatter, b)) == expected


def test_a_scattered_instance_is_a_memo_hit():
    t = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))
    scattered = SignSequence(frozenset({13, 25, 26}), frozenset({1, 12, 24}))
    build_bijection(t, {1, 2}, {5})
    before = bijection._build.cache_info()
    build_bijection(scattered, {1, 12}, {25})
    after = bijection._build.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_cold_builds_equal_warm_builds():
    instances = list(iter_exhaustive_instances(6))
    warm = [build_bijection(t, a, b) for t, a, b in instances]
    for (t, a, b), mapping in zip(instances, warm):
        bijection._build.cache_clear()
        assert build_bijection(t, a, b) == mapping


def _acceptance_script():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_acceptance.py")
    spec = importlib.util.spec_from_file_location("run_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_canonical_map_digest_ignores_set_build_order():
    script = _acceptance_script()
    path = LatticedPath(SignSequence({3, 1}, {2, 4}), frozenset({(3, 4), (1, 2)}))
    assert script.canon(path) == (
        "LatticedPath(window=SignSequence(plus={1, 3}, minus={2, 4}), "
        "flattened={(1, 2), (3, 4)}, degenerate=False)"
    )
    assert script.canon((5,)) == "(5)"
    # the --deep step pins the map on up to 8 positions; this is its <=6 digest
    assert script.map_digest(6) == (
        "9965cd869a6569223b252a0ff8378a3cfca36a5819708335b2ecd55fe5ff5f3c", 804
    )


def test_the_base_case_map_is_pinned_on_every_single_column_instance_up_to_9_positions():
    # every sign word on 1..k (k <= 9) with every minus position as the one
    # added column and nothing removed: the base case alone, on 4,097 maps
    canon = _acceptance_script().canon
    h, maps = hashlib.sha256(), 0
    for k in range(1, 10):
        for word in range(2**k):
            plus = frozenset(i + 1 for i in range(k) if word >> i & 1)
            t = SignSequence(plus, frozenset(range(1, k + 1)) - plus)
            for a0 in sorted(t.minus):
                mapping = build_bijection(t, {a0}, set())
                for key, image in sorted((canon(el), canon(img)) for el, img in mapping.items()):
                    h.update((key + "->" + image).encode())
                maps += 1
    assert (h.hexdigest(), maps) == (
        "0b66c28163f374586edfafaf5a551284a755708404393a0ab4da50d6e39d499d", 4097
    )
