import dataclasses
import hashlib
import importlib.util
import json
import os

import pytest

from fockpath import sweeps
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


@pytest.fixture
def acceptance(monkeypatch):
    """run_acceptance.py with every runner of sweeps.SWEEPS and map-digest
    replaced by a fake that records its config; a kind put in the returned
    set reports one failure."""
    script = _script("run_acceptance")
    calls, failing = [], set()

    def fake(kind):
        def run(cfg):
            calls.append((kind, cfg))
            report = sweeps.SweepReport(kind=kind, checked=1)
            if kind in failing:
                report.fail(planted=kind)
            return report
        return run

    for kind, sweep in sweeps.SWEEPS.items():
        monkeypatch.setitem(sweeps.SWEEPS, kind, dataclasses.replace(sweep, run=fake(kind)))
    monkeypatch.setattr(script, "run_map_digest", lambda: fake("map-digest")(None))
    return script, calls, failing


@pytest.mark.parametrize("failing", [None, *sweeps.SWEEPS, "map-digest"])
def test_run_acceptance_exits_1_when_a_sweep_fails(acceptance, capsys, failing):
    script, _, planted = acceptance
    if failing is not None:
        planted.add(failing)
    assert script.main(["--deep"]) == (0 if failing is None else 1)
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAILED" in line]
    expected = {None: 0, "map-digest": 1}.get(failing, 2)  # a kind fails in both tiers
    assert len(failed) == expected


def test_run_acceptance_runs_both_tiers_of_the_table_in_order(acceptance, capsys):
    script, calls, _ = acceptance
    kinds = list(sweeps.SWEEPS)
    acceptance_runs = [(kind, sweeps.SWEEPS[kind].acceptance) for kind in kinds]
    assert script.main(["--json"]) == 0
    assert [r["kind"] for r in json.loads(capsys.readouterr().out)] == kinds
    assert calls == acceptance_runs

    calls.clear()
    assert script.main(["--deep", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert [r["kind"] for r in entries] == kinds * 2 + ["map-digest"]
    assert [r["name"] for r in entries] == kinds + [f"{k}-deep" for k in kinds] + ["map-digest"]
    deep_runs = [(kind, sweeps.SWEEPS[kind].deep) for kind in kinds]
    assert calls == acceptance_runs + deep_runs + [("map-digest", None)]

    assert script.main(["--deep"]) == 0
    names = [line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()]
    assert names == kinds + [f"{kind}-deep" for kind in kinds] + ["map-digest"]


def test_run_acceptance_passes_cache_to_the_configs_with_a_cache_dir(acceptance, capsys):
    script, calls, _ = acceptance
    assert script.main(["--deep", "--cache", "levels"]) == 0
    capsys.readouterr()
    cached = [kind for kind, cfg in calls if getattr(cfg, "cache_dir", None) == "levels"]
    assert cached == ["formula", "branching"] * 2
    tiers = [sweep.acceptance for sweep in sweeps.SWEEPS.values()]
    tiers += [sweep.deep for sweep in sweeps.SWEEPS.values()]
    uncached = [
        dataclasses.replace(cfg, cache_dir=None) if hasattr(cfg, "cache_dir") else cfg
        for _, cfg in calls[:-1]
    ]
    assert uncached == tiers


# sha256 of the worked nine-step figure: the five paths' ASCII drawings on
# stdout, and the SVG file holding all five
DRAWINGS_SHA256 = "9fa2e867d4e2b7a8030115e3c6b25990e1b93609c55120903198b45e9721c075"
SVG_SHA256 = "1849ad0fa5cec619ba2c442128d011d6d1a12a2ffed3e0bdbc0f2ba2f3a4071b"


def test_draw_examples_draws_the_pinned_figures(capsys, tmp_path):
    draw = _script("draw_examples")
    assert draw.main([]) == 0
    drawings = capsys.readouterr().out
    assert hashlib.sha256(drawings.encode()).hexdigest() == DRAWINGS_SHA256
    svg = tmp_path / "paths.svg"
    assert draw.main(["--svg-out", str(svg)]) == 0
    assert capsys.readouterr().out == drawings + f"wrote {svg}\n"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == SVG_SHA256


def test_draw_examples_exits_2_when_the_svg_cannot_be_written(capsys, tmp_path):
    draw = _script("draw_examples")
    assert draw.main([]) == 0
    drawings = capsys.readouterr().out
    svg = tmp_path / "missing" / "paths.svg"
    assert draw.main(["--svg-out", str(svg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == drawings
    assert captured.err.startswith("error: [Errno 2] ") and captured.err.endswith(f"{str(svg)!r}\n")
    assert captured.err.count("\n") == 1
