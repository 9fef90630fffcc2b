import importlib.util
import os

import pytest

from fockpath.laurent import LaurentPolynomial


def _script(name):
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decomposition_table_agrees_at_e2_n6(capsys):
    assert _script("decomposition_table").main(["--e", "2", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "DISAGREES" not in out
    assert out.splitlines()[-1].startswith("-- ") and out.endswith("at e=2, n=6\n")


def test_decomposition_table_fails_on_a_disagreement(capsys, monkeypatch):
    table = _script("decomposition_table")
    right = table.decomposition_polynomial

    def wrong(move):
        # one wrong polynomial: the move that removes column 2 at e=2, n=5
        return right(move) + LaurentPolynomial({7: 1}) if move.removed == {2} else right(move)

    monkeypatch.setattr(table, "decomposition_polynomial", wrong)
    assert table.main(["--e", "2", "--n", "5"]) == 1
    captured = capsys.readouterr()
    flagged = [line for line in captured.out.splitlines() if "<< ORACLE DISAGREES" in line]
    assert len(flagged) == 1 and "remove=[2]" in flagged[0]
    assert captured.err == "error: the oracle disagrees on 1 of 2 moves\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--e", "1", "--n", "3"], "error: e must be at least 2\n"),
        (["--e", "2", "--n", "-3"], "error: n must be non-negative, got -3\n"),
    ],
    ids=["e1", "negative-n"],
)
def test_decomposition_table_rejects_a_bad_modulus_or_size(capsys, argv, message):
    assert _script("decomposition_table").main(argv) == 2
    assert capsys.readouterr() == ("", message)
