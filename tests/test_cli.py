import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fockpath.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decomp_single_move(capsys):
    code, out, _ = run(capsys, "decomp", "--e", "2", "--col", "2", "--row", "1,1", "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "A": [1],
        "B": [2],
        "e": 2,
        "lambda": [1, 1],
        "mu": [2],
        "paths": 1,
        "poly": {"1": 1},
        "r": 1,
    }


def test_decomp_diagonal(capsys):
    code, out, _ = run(capsys, "decomp", "--e", "2", "--col", "2", "--row", "2")
    assert code == 0
    assert "= 1" in out


def test_decomp_failed_pairing_is_zero(capsys):
    code, out, _ = run(capsys, "decomp", "--e", "2", "--col", "3,1", "--row", "4", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["poly"] == {}
    assert record["paths"] == 0


def test_decomp_not_covered_exits_2(capsys):
    code, _, err = run(capsys, "decomp", "--e", "3", "--col", "3", "--row", "1,1,1")
    assert code == 2
    assert "not covered" in err


def test_decomp_usage_error(capsys):
    code, _, err = run(capsys, "decomp", "--e", "2", "--col", "2")
    assert code == 2


def test_decomp_explicit_move(capsys):
    code, out, _ = run(
        capsys, "decomp", "--e", "2", "--col", "2", "--r", "1", "--add", "1",
        "--remove", "2", "--json",
    )
    assert code == 0
    assert json.loads(out)["poly"] == {"1": 1}


def test_moves_listing(capsys):
    code, out, _ = run(capsys, "moves", "--e", "2", "--lam", "2", "--json")
    assert code == 0
    records = json.loads(out)
    assert any(rec["lambda"] == [1, 1] and rec["poly"] == {"1": 1} for rec in records)


def test_paths_listing(capsys):
    code, out, _ = run(
        capsys, "paths", "--plus", "2,3,5,9", "--minus", "1,4,6,7,8", "--json"
    )
    assert code == 0
    records = json.loads(out)
    assert sorted((rec["norm"] for rec in records), reverse=True) == [10, 8, 8, 6, 4]


def test_paths_wellnested(capsys):
    code, out, _ = run(
        capsys, "paths", "--plus", "3,5,6", "--minus", "1,2,4",
        "--add", "1,2", "--remove", "5,6", "--json",
    )
    assert code == 0
    records = json.loads(out)
    assert sorted((rec["norm"] for rec in records), reverse=True) == [8, 6, 4]


def test_paths_names_only_the_misplaced_columns(capsys):
    code, out, err = run(
        capsys, "paths", "--plus", "3,5,6", "--minus", "1,2,4",
        "--add", "1,2", "--remove", "5,7",
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "error: closers [7] are not plus positions"


def test_oracle_coefficient(capsys):
    code, out, _ = run(capsys, "oracle", "--e", "2", "--mu", "2", "--lam", "1,1", "--json")
    assert code == 0
    assert json.loads(out)["poly"] == {"1": 1}


def test_oracle_rejects_singular(capsys):
    code, _, err = run(capsys, "oracle", "--e", "2", "--mu", "1,1")
    assert code == 2
    assert "singular" in err


def test_oracle_cache_roundtrip(capsys, tmp_path):
    cache = str(tmp_path / "oracle-cache")
    code, out, _ = run(capsys, "oracle", "--e", "2", "--n", "5", "--cache", cache, "--json")
    assert code == 0
    status = json.loads(out)
    assert status["roundtrip"] == "ok"
    # corrupt one byte: the corrupt file is rejected and rebuilt on demand
    path = status["written"]
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0xFF
    open(path, "wb").write(bytes(data))
    with pytest.warns(RuntimeWarning, match="canonical_e2_n5.jsonl"):
        code, out, _ = run(capsys, "oracle", "--e", "2", "--n", "5", "--cache", cache, "--json")
    assert code == 0
    assert json.loads(out)["roundtrip"] == "ok"


def test_oracle_rejects_row_label_of_another_size(capsys):
    code, out, err = run(capsys, "oracle", "--e", "2", "--mu", "3", "--lam", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "size mismatch" in err


def test_oracle_rejects_negative_cache_level(capsys, tmp_path):
    code, out, err = run(capsys, "oracle", "--e", "2", "--n", "-1", "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split() for line in block.splitlines()
            if line.startswith("fockpath ")]


def test_readme_cli_examples_run(capsys):
    skipped = {"--cache", "--n", "--report", "--out", "verify"}
    ran = 0
    for argv in _readme_cli_lines():
        if skipped & set(argv):
            continue
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (shlex.join(argv), err)
        ran += 1
    assert ran >= 6


def test_verify_consistency_small(capsys):
    code, out, _ = run(capsys, "verify", "consistency", "--max-n", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["checked"] > 0


def test_verify_formula_small(capsys):
    code, out, _ = run(
        capsys, "verify", "formula", "--e", "2", "--max-n", "6", "--json"
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_verify_bijection_small(capsys):
    code, out, _ = run(
        capsys, "verify", "bijection", "--max-positions", "5", "--samples", "50", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["notes"]["sampled"] == 50


def test_verify_bijection_report_lines(capsys, tmp_path):
    target = tmp_path / "report.jsonl"
    code, _, _ = run(
        capsys, "verify", "bijection", "--max-positions", "4", "--samples", "10",
        "--report", str(target), "--json",
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"T", "A", "B", "ok", "normsL", "normsR"}
        assert record["ok"] is True


def test_render_golden(capsys):
    code, out, _ = run(capsys, "render", "--plus", "2", "--minus", "1")
    assert code == 0
    assert out.rstrip("\n") == "\\/"


def test_render_svg_to_file(capsys, tmp_path):
    target = tmp_path / "path.svg"
    code, out, _ = run(
        capsys, "render", "--plus", "2,3,5,9", "--minus", "1,4,6,7,8",
        "--format", "svg", "--out", str(target),
    )
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_render_rejects_non_pairs(capsys):
    code, _, err = run(
        capsys, "render", "--plus", "2", "--minus", "1", "--flatten", "1:2"
    )
    assert code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "fockpath", "decomp", "--e", "2", "--col", "2",
         "--row", "1,1", "--json"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["poly"] == {"1": 1}


def test_determinism_of_verify(capsys):
    args = ["verify", "bijection", "--max-positions", "4", "--samples", "25",
            "--seed", "7", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize(
    "argv",
    [
        ("decomp", "--e", "0", "--col", "2", "--row", "1,1"),
        ("decomp", "--e", "1", "--col", "2", "--row", "1,1"),
        ("moves", "--e", "0", "--lam", "3,1"),
    ],
    ids=["decomp-e0", "decomp-e1", "moves-e0"],
)
def test_modulus_below_two_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_keeps_an_explicit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "bijection", "--max-positions", "0", "--samples", "5", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["checked"] == 5
    assert report["notes"]["sampled"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("render", "--plus", "2", "--minus", "1", "--out", "{missing}/x.txt"),
        ("verify", "bijection", "--max-positions", "2", "--samples", "1",
         "--report", "{missing}/r.jsonl"),
        ("oracle", "--e", "2", "--n", "2", "--cache", "{regular}"),
    ],
    ids=["render-out", "verify-report", "oracle-cache-is-a-file"],
)
def test_os_errors_are_usage_errors(capsys, tmp_path, argv):
    regular = tmp_path / "regular"
    regular.write_text("")
    paths = {"missing": tmp_path / "missing", "regular": regular}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--max-n", "--max-positions", "--samples"])
def test_verify_rejects_a_negative_budget(capsys, flag):
    code, out, err = run(capsys, "verify", "formula", flag, "-3")
    assert code == 2
    assert out == ""
    assert "non-negative" in err
