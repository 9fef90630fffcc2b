from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from fockpath.latticepath import (
    LatticedPath,
    ambient_heights,
    is_valid_path,
    is_well_nested,
    latticed_paths,
    latticed_paths_by_flattening,
    make_collection,
    render_ascii,
    render_svg,
    well_nested_collections,
)
from fockpath.signseq import PairingError, SignSequence, match_pairs

NINE_STEP = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))


def sign_sequences(max_positions):
    return st.integers(0, max_positions).flatmap(
        lambda k: st.integers(0, 2**k - 1 if k else 0).map(
            lambda mask: SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )
        )
    )


def test_worked_nine_step_example():
    paths = latticed_paths(NINE_STEP)
    assert sorted((p.norm for p in paths), reverse=True) == [10, 8, 8, 6, 4]
    assert paths[0].flattened == frozenset()  # generic first


def test_empty_window_and_degenerate():
    empty = SignSequence(frozenset(), frozenset())
    (only,) = latticed_paths(empty)
    assert only.norm == 1 and not only.degenerate
    assert LatticedPath.empty().norm == 0


def test_two_up_two_down():
    w = SignSequence(frozenset({1, 2}), frozenset({3, 4}))
    assert sorted((p.norm for p in latticed_paths(w)), reverse=True) == [5, 3, 1]


def test_norm_counts_surviving_strokes():
    for path in latticed_paths(NINE_STEP):
        diagonals = sum(1 for _, kind in path.steps() if kind != "flat")
        assert path.norm == 1 + diagonals


@settings(max_examples=300, deadline=None)
@given(sign_sequences(9))
def test_fast_and_slow_enumerations_agree(window):
    assert set(latticed_paths(window)) == latticed_paths_by_flattening(window)


def test_fast_and_slow_exhaustive_small():
    for k in range(0, 9):
        for mask in range(2**k if k else 1):
            window = SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )
            assert set(latticed_paths(window)) == latticed_paths_by_flattening(window)


@settings(deadline=None)
@given(sign_sequences(9))
def test_norm_identity_with_down_counts(window):
    # norm = 1 + 2*(surviving down-strokes) + (plus count - minus count)
    for path in latticed_paths(window):
        assert path.norm == 1 + 2 * len(path.down_positions()) + window.size


@given(sign_sequences(8))
def test_heights_stay_below_generic_with_same_endpoints(window):
    if not window.positions:
        return
    rank, heights = ambient_heights(window)
    for path in latticed_paths(window):
        prof = {}
        for k in range(len(window.positions) + 1):
            drop = sum(1 for (u, w) in path.flattened if rank[u] <= k < rank[w])
            prof[k] = heights[k] - drop
        assert prof[0] == heights[0]
        assert prof[len(window.positions)] == heights[-1]
        for k, h in prof.items():
            assert h <= heights[k]


def test_max_norm_attained_uniquely_by_generic():
    for window in [NINE_STEP, SignSequence(frozenset({1, 2}), frozenset({3, 4}))]:
        paths = latticed_paths(window)
        top = 1 + len(window.positions)
        assert max(p.norm for p in paths) == top
        assert sum(1 for p in paths if p.norm == top) == 1


def test_wellnested_simple_pair_of_nested_windows():
    t = SignSequence(frozenset({4, 6}), frozenset({1, 2}))
    (coll,) = well_nested_collections(t, {1, 2}, {4, 6})
    assert coll.norm == 4


def test_wellnested_exclusion_of_inner_flattened():
    t = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))
    colls = well_nested_collections(t, {1, 2}, {5, 6})
    assert sorted((c.norm for c in colls), reverse=True) == [8, 6, 4]
    # the excluded combination: outer generic, inner (2,5)-window flattened
    inner_flat = [
        c
        for c in colls
        if c.path_of(2).flattened and not c.path_of(1).flattened
    ]
    assert not inner_flat


def test_wellnested_single_pair_is_plain_path_set():
    t = NINE_STEP
    colls = well_nested_collections(t, {1}, {9})
    window = t.between(1, 9)
    assert sorted(c.norm for c in colls) == sorted(
        p.norm for p in latticed_paths(window)
    )


def test_wellnested_rejects_imperfect_matching():
    t = SignSequence(frozenset({2}), frozenset({1}))
    with pytest.raises(PairingError):
        well_nested_collections(t, {1}, set())
    with pytest.raises(PairingError):
        well_nested_collections(t, {2}, {1})


def test_outer_flattening_is_monotone():
    # replacing the path of an outermost pair by a more flattened one keeps
    # the collection well-nested
    t = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))
    colls = well_nested_collections(t, {1, 2}, {5, 6})
    members = set(colls)
    for coll in colls:
        outer = [
            (a, b)
            for a, b, _ in coll.entries
            if not any(
                x < a and b < y for x, y, _ in coll.entries
            )
        ]
        for a, b in outer:
            current = coll.path_of(a)
            for candidate in latticed_paths(t.between(a, b)):
                if candidate.flattened >= current.flattened:
                    entries = [
                        (x, y, candidate if x == a else p)
                        for x, y, p in coll.entries
                    ]
                    assert is_well_nested(t, entries)


@given(sign_sequences(8))
def test_every_enumerated_path_is_valid(window):
    for path in latticed_paths(window):
        assert is_valid_path(path)


def test_render_golden():
    assert render_ascii(LatticedPath(SignSequence(frozenset({2}), frozenset({1})))) == "\\/"
    nine = render_ascii(LatticedPath(NINE_STEP))
    assert sum(1 for ch in nine if ch in "/\\_") == 9
    assert nine == "  /\\/\\\n\\/    \\\n       \\/"
    assert render_ascii(LatticedPath(SignSequence(frozenset(), frozenset()))) == ""


def test_render_overlay_marks_generic():
    path = LatticedPath(NINE_STEP, frozenset({(2, 7), (3, 4), (5, 6)}))
    plain = render_ascii(path)
    dotted = render_ascii(path, overlay=True)
    assert "." in dotted
    assert plain == dotted.replace(".", " ").rstrip() or plain in dotted.replace(".", " ")


def test_render_svg_deterministic():
    path = LatticedPath(NINE_STEP)
    svg = render_svg([path])
    assert svg == render_svg([path])
    assert svg.startswith("<svg") and svg.count("<polyline") == 1


def test_wellnested_collections_match_the_filtered_product():
    # every perfect matching of minus to plus positions on up to 7 positions
    checked = 0
    for k in range(1, 8):
        for mask in range(2**k):
            t = SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )
            for r in range(1, 4):
                openers = combinations(sorted(t.minus), r)
                closers = list(combinations(sorted(t.plus), r))
                for a, b in product(openers, closers):
                    m = match_pairs(a, b)
                    if m.unpaired_openers or m.unpaired_closers:
                        continue
                    per_pair = [
                        [(u, w, p) for p in latticed_paths(t.between(u, w))] for u, w in m.pairs
                    ]
                    expected = tuple(
                        make_collection(t, combo)
                        for combo in product(*per_pair)
                        if is_well_nested(t, combo)
                    )
                    assert well_nested_collections(t, a, b) == expected
                    checked += 1
    assert checked == 1800


def test_wellnested_names_only_the_misplaced_columns():
    t = SignSequence(frozenset({3, 5, 6}), frozenset({1, 2, 4}))
    with pytest.raises(PairingError) as err:
        well_nested_collections(t, {1, 2}, {5, 7})
    assert str(err.value) == "closers [7] are not plus positions"
    with pytest.raises(PairingError) as err:
        well_nested_collections(t, {3, 4}, {5, 1})
    assert str(err.value) == (
        "openers [3] are not minus positions and closers [1] are not plus positions"
    )


def test_wellnested_collections_with_a_self_paired_column():
    # one column both opened and closed, next to every perfect matching of
    # up to three minus positions to plus positions, on up to 8 positions
    checked = 0
    for k in range(1, 9):
        for mask in range(2**k):
            t = SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )
            for c in t.positions:
                minus, plus = sorted(t.minus - {c}), sorted(t.plus - {c})
                for r in range(1, 4):
                    for a, b in product(combinations(minus, r), combinations(plus, r)):
                        m = match_pairs({c, *a}, {c, *b})
                        if m.unpaired_openers or m.unpaired_closers:
                            continue
                        per_pair = [
                            [(u, w, LatticedPath.empty())] if u == w
                            else [(u, w, p) for p in latticed_paths(t.between(u, w))]
                            for u, w in m.all_pairs()
                        ]
                        expected = tuple(
                            make_collection(t, combo)
                            for combo in product(*per_pair)
                            if is_well_nested(t, combo)
                        )
                        assert well_nested_collections(t, {c, *a}, {c, *b}) == expected
                        checked += 1
    assert checked == 27456
