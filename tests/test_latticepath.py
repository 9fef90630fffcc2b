import hashlib
import time
from itertools import accumulate, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from fockpath.closedform import MoveSpec, decomposition_paths
from fockpath.latticepath import (
    LatticedPath,
    _path_table,
    ambient_heights,
    is_valid_path,
    is_well_nested,
    latticed_paths,
    latticed_paths_by_flattening,
    make_collection,
    mask_collections,
    masks_well_nested,
    path_profile,
    render_ascii,
    render_svg,
    well_nested_collections,
)
from fockpath.signseq import PairingError, SignSequence, bracket_pairs, match_pairs

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


def test_windows_keep_the_views_of_a_fresh_sequence():
    # restrict fills a window's positions and word, and latticed_paths its
    # paths' norms; each must be what a sequence or path built afresh computes
    for k in range(9):
        for mask in range(2**k):
            t = SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )
            for lo, hi in combinations(range(k + 2), 2):
                for w in (t.between(lo, hi), t.half_open(lo, hi)):
                    fresh = SignSequence(w.plus, w.minus)
                    assert w == fresh
                    assert w.positions == fresh.positions
                    assert w.word == fresh.word
                    assert w.prefix_heights == fresh.prefix_heights
                    assert w.matching() == fresh.matching()
                    for path in latticed_paths(w):
                        norm = 1 + len(w.positions) - 2 * len(path.flattened)
                        assert path.norm == norm
                        assert LatticedPath(fresh, path.flattened).norm == norm


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


def test_render_overlay_adds_a_line_dotting_the_flattened_strokes():
    path = LatticedPath(NINE_STEP, frozenset({(2, 7), (3, 4), (5, 6)}))
    assert render_ascii(path, overlay=True) == render_ascii(path) + "\n ......"


def test_render_svg_deterministic():
    path = LatticedPath(NINE_STEP)
    svg = render_svg([path])
    assert svg == render_svg([path])
    assert svg.startswith("<svg") and svg.count("<polyline") == 1


def test_the_drawings_are_pinned_on_every_word_up_to_9_positions():
    # every sign word on 1..k, k <= 9 (bit i of the word marks i + 1 as
    # plus): each path's ASCII drawing in order, then the SVG of all of them
    h, drawn = hashlib.sha256(), 0
    for k in range(10):
        for word in range(2**k):
            t = SignSequence(frozenset(i + 1 for i in range(k) if word >> i & 1),
                             frozenset(i + 1 for i in range(k) if not word >> i & 1))
            paths = latticed_paths(t)
            for path in paths:
                h.update((render_ascii(path) + "\n").encode())
            h.update((render_svg(paths) + "\n").encode())
            drawn += len(paths)
    assert drawn == 4787
    assert h.hexdigest() == "c244f32159c82bd4c48b25e66ffbd92d2f81c699140216e2a95959039020410f"


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


def test_mask_collections_match_the_height_filtered_product():
    # every perfect matching on up to 7 positions, alone and next to one
    # self-paired column; each t sits on 1..k, so its positions are its ranks
    checked = 0
    for k in range(1, 8):
        for mask in range(2**k):
            t = SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )
            for selfs in [set()] + [{c} for c in t.positions]:
                minus, plus = sorted(t.minus - selfs), sorted(t.plus - selfs)
                for r in range(4):
                    for a, b in product(combinations(minus, r), combinations(plus, r)):
                        pairs, lone_openers, lone_closers = bracket_pairs(
                            selfs | set(a), selfs | set(b)
                        )
                        if lone_openers or lone_closers:
                            continue
                        per_pair = [
                            [(u, w, 0)] if u == w
                            else [(u, w, m << (u + 1)) for m, _ in _path_table(t.word[u:w - 1])]
                            for u, w, _ in pairs
                        ]
                        expected = [
                            combo for combo in product(*per_pair)
                            if masks_well_nested(t.word, combo)
                        ]
                        assert mask_collections(t.word, pairs) == expected, (t, selfs, a, b)
                        checked += 1
    assert checked == 10216


def _every_pair_well_nested(word, entries):
    """Reference: the height test on every strictly nested pair of genuine
    entries, not only on each entry and its innermost enclosing one."""
    heights = list(accumulate((1 if up else -1 for up in word), initial=0))
    profiles = [(x, y, path_profile(word, heights, x, y, m)) for x, y, m in entries if x != y]
    return all(
        h >= outer[x - ox + g]
        for ox, oy, outer in profiles
        for x, y, inner in profiles if ox < x and y < oy
        for g, h in enumerate(inner)
    )


def test_masks_well_nested_tests_every_nested_pair_on_up_to_9_positions():
    # every candidate collection: one _path_table option per pair, for every
    # perfect matching of minus to plus ranks of every word on up to 9 strokes
    candidates = rejected = 0
    for k in range(10):
        for word in product((True, False), repeat=k):
            minus = [i + 1 for i, up in enumerate(word) if not up]
            plus = [i + 1 for i, up in enumerate(word) if up]
            for r in range(1, min(len(minus), len(plus)) + 1):
                for a, b in product(combinations(minus, r), combinations(plus, r)):
                    pairs, lone_openers, lone_closers = bracket_pairs(set(a), set(b))
                    if lone_openers or lone_closers:
                        continue
                    per_pair = [
                        [(u, w, m << (u + 1)) for m, _ in _path_table(word[u:w - 1])]
                        for u, w, _ in pairs
                    ]
                    for combo in product(*per_pair):
                        well = masks_well_nested(word, combo)
                        assert well == _every_pair_well_nested(word, combo), (word, combo)
                        candidates += 1
                        rejected += not well
    assert (candidates, rejected) == (39565, 1653)


# NESTED_T's word with two more down-strokes: (1, 6) with the generic path
# and (2, 5) flattening (3, 4) is not well-nested, and (4, 8) crosses both
LONG_WORD = (False, False, True, False, True, True, False, False)


@pytest.mark.parametrize(
    "entries",
    [
        [(1, 5, 0), (3, 7, 0)],
        [(1, 5, 0), (1, 7, 0)],
        [(1, 7, 0), (3, 7, 0)],
        [(1, 5, 0), (5, 7, 0)],
        [(1, 5, 0), (1, 5, 0)],
        [(2, 5, 1 << 3), (1, 6, 0), (4, 8, 0)],
    ],
    ids=["crossing", "shared-opener", "shared-closer", "closer-opens", "repeated", "after-a-dip"],
)
def test_entries_that_cross_or_share_an_end_raise(entries):
    with pytest.raises(ValueError, match="cross or share an end"):
        masks_well_nested(LONG_WORD, entries)
    # LONG_WORD on positions 1..8, with the generic path of each window
    t = SignSequence(
        frozenset(i + 1 for i, up in enumerate(LONG_WORD) if up),
        frozenset(i + 1 for i, up in enumerate(LONG_WORD) if not up),
    )
    with pytest.raises(ValueError, match="cross or share an end"):
        is_well_nested(t, [(x, y, LatticedPath(t.between(x, y))) for x, y, _ in entries])


def test_self_pairs_are_skipped_even_on_a_genuine_end():
    assert not masks_well_nested(LONG_WORD, [(1, 6, 0), (2, 5, 1 << 3)])
    assert masks_well_nested(LONG_WORD, [(1, 6, 0), (1, 1, 0), (6, 6, 0), (2, 5, 0)])


def test_path_table_of_a_1000_pair_chain_in_under_a_second():
    # 1,000 up-strokes then 1,000 down-strokes: the flattenings are the
    # innermost j pairs for each j
    n = 1000
    start = time.perf_counter()
    table = _path_table((True,) * n + (False,) * n)
    elapsed = time.perf_counter() - start
    assert table == tuple(
        (((1 << j) - 1) << (n - j), 2 * n + 1 - 2 * j) for j in range(n + 1)
    )
    assert elapsed < 1.0


def _spread_windows(max_positions):
    """Every sign word on up to max_positions strokes, on the positions
    1, 4, 7, ... so that positions and ranks differ."""
    for k in range(max_positions + 1):
        for word in product((True, False), repeat=k):
            spots = [3 * i + 1 for i in range(k)]
            yield SignSequence(
                frozenset(p for p, up in zip(spots, word) if up),
                frozenset(p for p, up in zip(spots, word) if not up),
            )


def test_is_valid_path_is_down_closure_and_membership():
    for window in _spread_windows(8):
        pairs = window.matching().pairs
        flattenings = {path.flattened for path in latticed_paths(window)}
        for k in range(len(pairs) + 1):
            for chosen in combinations(pairs, k):
                flat = frozenset(chosen)
                down_closed = all(
                    (u2, w2) in flat
                    for u, w in flat
                    for u2, w2 in pairs
                    if u < u2 and w2 < w
                )
                valid = is_valid_path(LatticedPath(window, flat))
                assert valid == down_closed == (flat in flattenings), (window, flat)


def test_is_valid_path_rejects_a_pair_with_the_wrong_closer():
    window = SignSequence({1, 2}, {3, 4})
    assert window.matching().pairs == ((1, 4), (2, 3))
    assert is_valid_path(LatticedPath(window, frozenset({(1, 4), (2, 3)})))
    assert not is_valid_path(LatticedPath(window, frozenset({(2, 4)})))
    assert not is_valid_path(LatticedPath(window, frozenset({(1, 3), (2, 3)})))


def test_is_well_nested_accepts_self_pairs_off_the_sequence():
    t = SignSequence({2}, {1})
    colls = well_nested_collections(t, [1, 7], [2, 7])
    assert [entry[:2] for entry in colls[0].entries] == [(1, 2), (7, 7)]
    assert all(is_well_nested(t, coll.entries) for coll in colls)


def test_is_well_nested_accepts_a_move_overlapping_off_the_nodes():
    # column 9 is both added and removed, and no node of the sign sequence
    colls = decomposition_paths(MoveSpec((2,), 2, 1, {1, 9}, {2, 9}))
    assert [entry[:2] for entry in colls[0].entries] == [(1, 2), (9, 9)]
    assert all(is_well_nested(coll.base, coll.entries) for coll in colls)
