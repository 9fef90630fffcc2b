"""The bounded memos return exactly what the functions behind them compute."""

import json

import pytest

from fockpath import bijection, closedform, fockspace, latticepath, partitions, signseq
from fockpath.cli import main
from fockpath.closedform import sign_sequence_of
from fockpath.signseq import SignSequence, match_pairs

MODULES = (bijection, closedform, fockspace, latticepath, partitions, signseq)


def memos():
    return [
        value
        for module in MODULES
        for value in vars(module).values()
        if callable(value) and hasattr(value, "cache_info")
    ]


def windows(max_positions):
    for k in range(max_positions + 1):
        for mask in range(2**k):
            yield SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )


def shapes(max_n, moduli):
    for e in moduli:
        for n in range(max_n + 1):
            for lam in partitions.partitions_of(n):
                for r in range(e):
                    yield lam, e, r


def test_every_memo_is_bounded():
    found = {memo.__wrapped__.__qualname__ for memo in memos()}
    assert {
        "latticed_paths", "_sign_sequence_of", "_indent_additions",
    } <= found
    for memo in memos():
        assert isinstance(memo.cache_info().maxsize, int), memo.__wrapped__.__qualname__


def test_window_memos_equal_the_uncached_functions():
    for t in windows(10):
        assert latticepath.latticed_paths(t) == latticepath.latticed_paths.__wrapped__(t)


def test_shape_memos_equal_the_uncached_functions():
    for lam, e, r in shapes(10, (2, 3, 4)):
        memo = closedform._sign_sequence_of
        assert memo(lam, e, r) == memo.__wrapped__(lam, e, r)
        for k in range(1, 4):
            memo = fockspace._indent_additions
            assert memo(lam, e, r, k) == memo.__wrapped__(lam, e, r, k)


def test_public_names_accept_lists_and_sets():
    assert match_pairs([1], [2]) == match_pairs(frozenset({1}), frozenset({2}))
    assert match_pairs({1, 3}, [2, 4]).pairs == ((1, 2), (3, 4))
    assert sign_sequence_of([2, 1], 2, 0) == sign_sequence_of((2, 1), 2, 0)


def test_a_shared_sign_sequence_keeps_its_cached_views():
    t = sign_sequence_of((4, 2, 1), 2, 1)
    assert sign_sequence_of([4, 2, 1], 2, 1) is t
    assert t.matching() is sign_sequence_of((4, 2, 1), 2, 1).matching()


def test_memo_errors_are_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError):
            sign_sequence_of((2, 1), 1, 0)
        with pytest.raises(ValueError):
            sign_sequence_of((2, 1), 2, 2)


def test_construction_report_is_the_same_on_warm_memos(capsys):
    def construction():
        assert main(["verify", "construction", "--max-positions", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("seconds")
        return report

    for memo in memos():
        memo.cache_clear()
    cold = construction()
    assert main(["verify", "formula", "--e", "2", "--e", "3", "--max-n", "7"]) == 0
    capsys.readouterr()
    warmed = (latticepath.latticed_paths, closedform._sign_sequence_of)
    assert all(memo.cache_info().currsize for memo in warmed)
    assert construction() == cold
