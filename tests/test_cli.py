import hashlib
import itertools
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fockpath.cli import main
from fockpath.latticepath import latticed_paths
from fockpath.signseq import SignSequence


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


def test_decomp_show_paths(capsys):
    code, out, _ = run(
        capsys, "decomp", "--e", "2", "--col", "5,3,1", "--r", "1", "--add", "1,2",
        "--remove", "1,3", "--show-paths",
    )
    assert code == 0
    assert out == (
        "d[5,2,2, 5,3,1](v) = v\n"
        "well-nested collections: 1\n"
        "-- collection 0 (norm 1)\n"
        "window (1,1): self-paired\n"
        "window (2,3):\n"
        "(empty)\n"
    )


def test_decomp_rejects_a_row_label_of_another_size(capsys):
    code, out, err = run(capsys, "decomp", "--e", "2", "--col", "2,1", "--row", "3,1")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: |3,1| != |2,1|"


def test_moves_listing(capsys):
    code, out, _ = run(capsys, "moves", "--e", "2", "--lam", "2", "--json")
    assert code == 0
    records = json.loads(out)
    assert any(rec["lambda"] == [1, 1] and rec["poly"] == {"1": 1} for rec in records)


def test_moves_without_a_move(capsys):
    code, out, _ = run(capsys, "moves", "--e", "2", "--lam", "2,1")
    assert code == 0
    assert out == "no moves\n"


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


def test_paths_with_an_explicitly_empty_matching_lists_its_one_collection(capsys):
    code, out, _ = run(capsys, "paths", "--plus", "2", "--minus", "1", "--add", "", "--remove", "")
    assert code == 0
    assert out == "1 well-nested collections\nnorm 0: []\n"
    code, out, _ = run(capsys, "paths", "--plus", "2", "--minus", "1", "--add", "", "--json")
    assert code == 0
    assert json.loads(out) == [{"norm": 0, "windows": []}]


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


def test_oracle_element_json(capsys):
    from fockpath.fockspace import canonical_basis

    code, out, _ = run(capsys, "oracle", "--e", "2", "--mu", "3,1", "--json")
    assert code == 0
    assert out.strip() == json.dumps(canonical_basis((3, 1), 2).to_json(), sort_keys=True)


@pytest.mark.parametrize("e, mu", [("2", "1200"), ("3", "700,700")])
def test_oracle_label_too_deep_to_recurse_is_a_scope_error(capsys, e, mu):
    # the oracle recurses once per ladder of the label
    code, out, err = run(capsys, "oracle", "--e", e, "--mu", mu)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_oracle_cache_roundtrip(capsys, tmp_path):
    cache = str(tmp_path / "oracle-cache")
    code, out, _ = run(capsys, "oracle", "--e", "2", "--n", "5", "--cache", cache, "--json")
    assert code == 0
    status = json.loads(out)
    assert status["roundtrip"] == "ok"
    # corrupt one byte: the corrupt file is rejected and rebuilt on demand
    path = status["written"]
    data = bytearray(Path(path).read_bytes())
    data[len(data) // 2] ^= 0xFF
    Path(path).write_bytes(bytes(data))
    with pytest.warns(RuntimeWarning, match="canonical_e2_n5.jsonl"):
        code, out, _ = run(capsys, "oracle", "--e", "2", "--n", "5", "--cache", cache, "--json")
    assert code == 0
    assert json.loads(out)["roundtrip"] == "ok"


def test_oracle_rejects_row_label_of_another_size(capsys):
    code, out, err = run(capsys, "oracle", "--e", "2", "--mu", "3", "--lam", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "size mismatch" in err


def _plant_in_g31(directory, old, new):
    """Replace old by new in G(3,1), the first record of the e = 2, n = 4
    level, and write the payload's new sha256 into the header, as a foreign
    writer would."""
    path = Path(directory) / "canonical_e2_n4.jsonl"
    head, payload = path.read_text(encoding="utf-8").split("\n", 1)
    first, rest = payload.split("\n", 1)
    payload = first.replace(old, new, 1) + "\n" + rest
    header = json.loads(head)
    header["sha256"] = hashlib.sha256(payload.rstrip("\n").encode("utf-8")).hexdigest()
    path.write_text(json.dumps(header) + "\n" + payload, encoding="utf-8")
    return path


@pytest.mark.parametrize("new, argv, want", [
    ("[1]", ("--mu", "3,1"), "2,1,1: v^2\n2,2: v\n3,1: 1\n"),
    ('{"2": 1.5}', ("--mu", "3,1", "--lam", "2,1,1"), "d[2,1,1, 3,1](v) = v^2\n"),
])
def test_oracle_discards_a_cached_record_with_a_non_integer(capsys, tmp_path, new, argv, want):
    cache = str(tmp_path / "d")
    assert run(capsys, "oracle", "--e", "2", "--n", "4", "--cache", cache)[0] == 0
    _plant_in_g31(cache, '{"2": 1}', new)
    with pytest.warns(RuntimeWarning, match="canonical_e2_n4.jsonl: malformed record"):
        code, out, err = run(capsys, "oracle", "--e", "2", *argv, "--cache", cache)
    assert (code, out, err) == (0, want, "")


def test_oracle_n_writes_the_computed_level_over_a_stale_one(capsys, tmp_path):
    cache = str(tmp_path / "d")
    assert run(capsys, "oracle", "--e", "2", "--n", "4", "--cache", cache)[0] == 0
    computed = Path(cache, "canonical_e2_n4.jsonl").read_bytes()
    # v^3 keeps every canonical-basis invariant, but G(3,1) holds v^2 there
    path = _plant_in_g31(cache, '{"2": 1}', '{"3": 1}')
    with pytest.warns(RuntimeWarning, match="canonical_e2_n4.jsonl: level differs"):
        code, out, _ = run(capsys, "oracle", "--e", "2", "--n", "4", "--cache", cache)
    assert code == 0 and out.startswith("wrote 2 entries")
    assert path.read_bytes() == computed


@pytest.mark.parametrize("argv, message", [
    (("--n", "5"), "--n needs a cache directory (--cache or FOCKPATH_CACHE)"),
    ((), "need --mu (or --n to build a cache level)"),
], ids=["n-without-cache", "no-mu"])
def test_oracle_usage_errors(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("FOCKPATH_CACHE", raising=False)
    code, out, err = run(capsys, "oracle", "--e", "2", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_oracle_rejects_negative_cache_level(capsys, tmp_path):
    code, out, err = run(capsys, "oracle", "--e", "2", "--n", "-1", "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines():
    text = README.read_text(encoding="utf-8")
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


def test_readme_library_example_prints_its_comments(capsys):
    # the Python block under "## Library example", run as printed: each
    # print line's comment begins with what the line prints
    text = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = text.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    expected = [line.split("#", 1)[1].split(",")[0].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected == ["v", "v"]


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
    lines = target.read_text(encoding="utf-8").splitlines()
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
    body = target.read_text(encoding="utf-8")
    assert body.startswith("<svg") and "polyline" in body


def test_render_rejects_non_pairs(capsys):
    code, _, err = run(
        capsys, "render", "--plus", "2", "--minus", "1", "--flatten", "1:2"
    )
    assert code == 2


def test_render_rejects_a_flattening_that_leaves_an_inner_pair_standing(capsys):
    code, out, err = run(
        capsys, "render", "--plus", "1,2", "--minus", "3,4", "--flatten", "1:4"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --flatten: the pairs 2:3 inside a flattened pair must be flattened too\n"


def test_render_accepts_a_down_closed_flattening(capsys):
    code, out, _ = run(
        capsys, "render", "--plus", "1,2", "--minus", "3,4", "--flatten", "2:3,1:4"
    )
    assert code == 0
    assert out.rstrip("\n") == "____"


def test_render_accepts_exactly_the_flattenings_of_latticed_paths(capsys):
    # every sign word on up to 6 positions, spread out so that no rank is
    # its position, and every set of its matched pairs
    for k in range(7):
        for signs in itertools.product((True, False), repeat=k):
            plus = [3 * i + 2 for i in range(k) if signs[i]]
            minus = [3 * i + 2 for i in range(k) if not signs[i]]
            t = SignSequence(frozenset(plus), frozenset(minus))
            pairs = t.matching().pairs
            paths = {path.flattened for path in latticed_paths(t)}
            for size in range(len(pairs) + 1):
                for flat in itertools.combinations(pairs, size):
                    code, out, err = run(
                        capsys, "render", "--plus", ",".join(map(str, plus)),
                        "--minus", ",".join(map(str, minus)),
                        "--flatten", ",".join(f"{u}:{w}" for u, w in flat),
                    )
                    standing = [
                        (x, y) for x, y in pairs
                        if (x, y) not in flat and any(u < x and y < w for u, w in flat)
                    ]
                    assert (frozenset(flat) in paths) == (not standing)
                    if not standing:
                        assert (code, err) == (0, "")
                    else:
                        listed = ",".join(f"{x}:{y}" for x, y in sorted(standing))
                        assert (code, out) == (2, "")
                        assert err == (f"error: --flatten: the pairs {listed} inside a "
                                       "flattened pair must be flattened too\n")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "fockpath", "decomp", "--e", "2", "--col", "2",
         "--row", "1,1", "--json"],
        capture_output=True, text=True, encoding="utf-8",
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
        ("verify", "consistency", "--e", "0", "--max-n", "4"),
        ("verify", "consistency", "--e", "2", "--e", "-3", "--max-n", "4"),
    ],
    ids=["decomp-e0", "decomp-e1", "moves-e0", "consistency-e0", "consistency-e-3"],
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
    regular.write_text("", encoding="utf-8")
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


@pytest.mark.parametrize(
    "argv",
    [
        ("render", "--plus", "2", "--minus", "1", "--format", "png"),
        ("verify", "everything"),
    ],
    ids=["render-format", "verify-kind"],
)
def test_unknown_choices_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


@pytest.mark.parametrize("kind", ["formula", "branching"])
def test_verify_reports_oracle_stats(capsys, kind):
    code, out, _ = run(capsys, "verify", kind, "--e", "3", "--max-n", "4", "--json")
    assert code == 0
    stats = json.loads(out)["notes"]["oracle"]
    assert set(stats) == {"3"}
    assert set(stats["3"]) == {
        "memo_size", "memo_hits", "computed", "levels_loaded", "levels_missing",
        "cache_discards",
    }
    assert stats["3"]["memo_size"] > 1


def test_verify_reports_the_oracle_work_of_its_own_sweep(capsys, monkeypatch):
    from fockpath import fockspace

    monkeypatch.setattr(fockspace, "_oracles", {})  # a fresh process's oracles
    stats = []
    for kind in ("formula", "branching", "formula"):
        code, out, _ = run(capsys, "verify", kind, "--e", "2", "--max-n", "8", "--json")
        assert code == 0
        stats.append(json.loads(out)["notes"]["oracle"]["2"])
    first, _, again = stats
    assert first["computed"] > 0 and first["memo_hits"] > 0
    # the oracle is warm: the same sweep computes and loads nothing
    assert again["computed"] == again["levels_missing"] == 0
    assert again["memo_size"] == fockspace.get_oracle(2).stats()["memo_size"]


def test_verify_reports_its_wall_time(capsys):
    code, out, _ = run(capsys, "verify", "formula", "--e", "2", "--max-n", "5", "--json")
    assert code == 0
    seconds = json.loads(out)["seconds"]
    assert isinstance(seconds, float) and seconds >= 0


@pytest.mark.parametrize(
    "error, code",
    [("UnitriangularityError", 3), ("SingularPivotError", 2)],
)
def test_oracle_errors_have_defined_exit_codes(capsys, monkeypatch, error, code):
    from fockpath import fockspace

    def broken(self, mu):
        raise getattr(fockspace, error)(f"elimination for {mu} failed")

    monkeypatch.setattr(fockspace.CanonicalBasisOracle, "_compute", broken)
    got, out, err = run(capsys, "oracle", "--e", "2", "--mu", "3,2")
    assert got == code
    assert out == ""
    assert err.startswith("error: elimination for (3, 2) failed")


def test_an_oracle_label_too_deep_to_recurse_on_exits_2(capsys):
    code, out, err = run(capsys, "oracle", "--e", "2", "--mu", "999")
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large: maximum recursion depth exceeded")
    assert err.count("\n") == 1
    # the shared e=2 oracle still answers
    code, out, _ = run(capsys, "oracle", "--e", "2", "--mu", "3,1")
    assert code == 0
    assert out == "2,1,1: v^2\n2,2: v\n3,1: 1\n"


def test_inexact_division_exits_3(capsys, monkeypatch):
    from fockpath import cli
    from fockpath.laurent import DivisibilityError

    def broken(collections):
        raise DivisibilityError("v + 1 is not divisible by v^2 + 1")

    monkeypatch.setattr(cli, "norm_polynomial", broken)
    code, out, err = run(capsys, "decomp", "--e", "2", "--col", "2", "--row", "1,1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: v + 1 is not divisible")


@pytest.mark.parametrize("kind", ["formula", "branching", "consistency"])
def test_verify_rejects_a_repeated_modulus(capsys, kind):
    code, out, err = run(capsys, "verify", kind, "--e", "2", "--e", "3", "--e", "2",
                         "--max-n", "4")
    assert code == 2
    assert out == ""
    assert err == "error: --e 2 given more than once\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("paths", "--plus", "1,1", "--minus", "2"), "--plus: 1 given more than once"),
        (("paths", "--plus", "3,5,6", "--minus", "4,1,2,4,1"),
         "--minus: 1, 4 given more than once"),
        (("paths", "--plus", "3,5,6", "--minus", "1,2,4", "--add", "1,2,1", "--remove", "5,6"),
         "--add: 1 given more than once"),
        (("decomp", "--e", "2", "--col", "5,3", "--r", "0", "--add", "1", "--remove", "1,1"),
         "--remove: 1 given more than once"),
        (("render", "--plus", "1,2", "--minus", "3,4", "--flatten", "1:2,1:2"),
         "--flatten: 1:2 given more than once"),
        (("render", "--plus", "1,2", "--minus", "3,4", "--flatten", "2:3,1:4, 2:3"),
         "--flatten: 2:3 given more than once"),
    ],
    ids=["plus", "minus-two", "add", "remove", "flatten", "flatten-spaced"],
)
def test_a_repeated_position_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_paths_on_a_deeply_nested_window(capsys):
    plus = ",".join(str(p) for p in range(1, 601))
    minus = ",".join(str(p) for p in range(601, 1201))
    code, out, _ = run(capsys, "paths", "--plus", plus, "--minus", minus)
    assert code == 0
    assert out.splitlines()[0] == "601 latticed paths"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("paths", "--plus", "1,a", "--minus", "2"), "--plus: 'a' is not an integer"),
        (("paths", "--plus", "2", "--minus", "1,"), "--minus: '' is not an integer"),
        (("paths", "--plus", "3,5,6", "--minus", "1,2,4", "--add", "1,x", "--remove", "5,6"),
         "--add: 'x' is not an integer"),
        (("paths", "--plus", "3,5,6", "--minus", "1,2,4", "--add", "1,2", "--remove", "5;6"),
         "--remove: '5;6' is not an integer"),
        (("render", "--plus", "2", "--minus", "1", "--flatten", "1"),
         "--flatten: '1' is not an opener:closer pair"),
        (("render", "--plus", "2", "--minus", "1", "--flatten", "1:b"),
         "--flatten: 'b' is not an integer"),
        (("render", "--plus", "2", "--minus", "1", "--flatten", "1:2:3"),
         "--flatten: '2:3' is not an integer"),
    ],
    ids=["plus", "minus", "add", "remove", "flatten-no-colon", "flatten-token",
         "flatten-extra-colon"],
)
def test_parse_errors_name_the_flag_and_the_token(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("decomp", "--e", "2", "--col", "3,a", "--r", "0"), "--col: 'a' is not an integer"),
        (("decomp", "--e", "2", "--col", "3,1", "--row", "2,x"), "--row: 'x' is not an integer"),
        (("moves", "--e", "2", "--lam", "3,,1"), "--lam: '' is not an integer"),
        (("oracle", "--e", "2", "--mu", "3,1", "--lam", "2,x"), "--lam: 'x' is not an integer"),
        (("oracle", "--e", "2", "--mu", "3;1"), "--mu: '3;1' is not an integer"),
    ],
    ids=["decomp-col", "decomp-row", "moves-lam", "oracle-lam", "oracle-mu"],
)
def test_partition_parse_errors_name_the_flag_and_the_token(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "construction", "--max-positions", "3", "--samples", "5", "--seed", "9",
          "--max-n", "4", "--e", "3", "--report", "r.jsonl"),
         "--samples does not apply to verify construction"),
        (("verify", "consistency", "--max-n", "3", "--cache", "c"),
         "--cache does not apply to verify consistency"),
        (("verify", "formula", "--max-n", "3", "--seed", "1"),
         "--seed does not apply to verify formula"),
        (("verify", "bijection", "--max-positions", "3", "--e", "2"),
         "--e does not apply to verify bijection"),
        (("decomp", "--e", "2", "--col", "2", "--row", "1,1", "--add", "1"),
         "--add does not apply to decomp --row"),
        (("decomp", "--e", "2", "--col", "2", "--row", "1,1", "--r", "0"),
         "--r does not apply to decomp --row"),
        (("oracle", "--e", "2", "--n", "3", "--cache", "c", "--lam", "2,1"),
         "--lam does not apply to oracle --n"),
    ],
    ids=["construction", "consistency-cache", "formula-seed", "bijection-e", "decomp-add",
         "decomp-r", "oracle-lam"],
)
def test_a_flag_the_command_would_ignore_is_a_usage_error(capsys, tmp_path, monkeypatch, argv,
                                                          message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("decomp", "--e", "2", "--col", "2", "--row", "1,1", "--show-paths", "--json"),
         "--show-paths does not apply to decomp --json"),
        (("render", "--plus", "1,2", "--minus", "3,4", "--flatten", "2:3", "--format", "svg",
          "--overlay"),
         "--overlay does not apply to render --format svg"),
    ],
    ids=["decomp-show-paths", "render-overlay"],
)
def test_a_drawing_flag_the_output_format_would_ignore_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, marks",
    [
        (("--plus", "2,3,5,9", "--minus", "1,4,6,7,8", "--flatten", "3:4"), "  .."),
        (("--plus", "1,2", "--minus", "3,4", "--flatten", "1:4,2:3"), "...."),
    ],
    ids=["readme", "nested"],
)
def test_render_overlay_adds_a_line_marking_the_flattened_strokes(capsys, argv, marks):
    code, plain, _ = run(capsys, "render", *argv)
    assert code == 0
    code, dotted, _ = run(capsys, "render", *argv, "--overlay")
    assert code == 0 and dotted != plain
    assert dotted == plain + marks + "\n"
