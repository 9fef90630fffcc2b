"""The failure records of the sweeps, pinned under planted faults.

Each partition sweep reports a failure with the fields that place it (lam,
e, r and, for a move or an induction instance, A and B) ahead of what
disagreed, and each instance sweep with the instance and both norm
multisets.  The faults below break a chosen share of checks of every kind,
and the records they produce are pinned by count and by digest or in full.
"""

import hashlib
import json
from collections import Counter

from fockpath import fockspace, sweeps
from fockpath.bijection import ConstructionError
from fockpath.cli import main
from fockpath.laurent import ZERO, LaurentPolynomial

PLANTED_FAILURES_SHA256 = "7033bd483e859986cdde3557210bf2dc8aa1cb8beba05f1e89f693228b7f508a"


def _v(k: int) -> LaurentPolynomial:
    return LaurentPolynomial({k: 1})


def test_planted_failures_keep_their_records(monkeypatch):
    calls = 0
    bump = ZERO  # what the next oracle coefficient gains

    def norm_polynomial(items):
        nonlocal calls, bump
        calls += 1
        p = norm_polynomial.real(items)
        bump = ZERO
        if not p:
            return p
        if calls % 7 == 0:
            return p + _v(5)
        for modulus, k in ((3, -1), (5, 99), (11, 1)):
            if calls % modulus == 0:
                bump = _v(k)
                break
        return p + bump

    def coefficient(self, lam, mu):
        return coefficient.real(self, lam, mu) + bump

    def decomposition_polynomial(move):
        p = decomposition_polynomial.real(move)
        return p + _v(1) if sum(move.lam) % 2 else p

    def branching_coefficient(lam, e, r, a, b):
        p = branching_coefficient.real(lam, e, r, a, b)
        return p + 1 if len(a) == 2 else p

    def consistency_sums(lam, e, r, a, b):
        lhs, rhs = consistency_sums.real(lam, e, r, a, b)
        return lhs, rhs + _v(1) if len(b) == 1 else rhs

    for plant in (norm_polynomial, decomposition_polynomial, branching_coefficient,
                  consistency_sums):
        plant.real = getattr(sweeps, plant.__name__)
        monkeypatch.setattr(sweeps, plant.__name__, plant)
    coefficient.real = fockspace.CanonicalBasisOracle.coefficient
    monkeypatch.setattr(fockspace.CanonicalBasisOracle, "coefficient", coefficient)

    formula = sweeps.run_formula_sweep(sweeps.FormulaSweepConfig(budgets=((2, 9), (3, 7))))
    branching = sweeps.run_branching_sweep(
        sweeps.BranchingSweepConfig(budgets=((2, 8), (3, 7)))
    )
    consistency = sweeps.run_consistency_sweep(
        sweeps.ConsistencySweepConfig(budgets=((2, 7), (3, 7)))
    )

    assert (len(formula.failures), formula.checked) == (133, 243)
    assert Counter(f.get("kind", "value") for f in formula.failures) == {
        "diagonal": 72, "value": 29, "positivity": 17, "top-degree": 9,
        "first-row": 5, "low-degree": 1,
    }
    assert (len(branching.failures), branching.checked) == (16, 169)
    assert (len(consistency.failures), consistency.checked) == (20, 260)
    records = json.dumps([formula.failures, branching.failures, consistency.failures])
    assert hashlib.sha256(records.encode()).hexdigest() == PLANTED_FAILURES_SHA256


def test_top_degree_is_read_off_the_sign_sequence(monkeypatch):
    """Drop the highest-norm collection of every move that has more than one,
    and plant the oracle to agree with the formula: the top-degree check
    still sees the loss, as it reads the top off the sign sequence."""
    planted = ZERO
    dropped = []

    def decomposition_paths(move):
        nonlocal planted
        collections = decomposition_paths.real(move)
        if len(collections) > 1:
            top = max(collections, key=lambda c: c.norm)
            collections = tuple(c for c in collections if c is not top)
            dropped.append(move)
        planted = sweeps.norm_polynomial(collections)
        return collections

    decomposition_paths.real = sweeps.decomposition_paths
    monkeypatch.setattr(sweeps, "decomposition_paths", decomposition_paths)
    monkeypatch.setattr(fockspace.CanonicalBasisOracle, "coefficient",
                        lambda self, lam, mu: planted)

    report = sweeps.run_formula_sweep(sweeps.FormulaSweepConfig(budgets=((2, 12), (3, 10))))

    assert len(dropped) == 1
    (move,) = dropped
    placed = [(f.get("kind"), f["lam"], f["e"], f["r"], f["A"], f["B"]) for f in report.failures]
    assert placed == [
        ("top-degree", list(move.lam), move.e, move.r, sorted(move.added), sorted(move.removed))
    ]



def test_a_singular_pivot_is_a_branching_failure(monkeypatch):
    """The branching sweep reports an expansion that needs an e-singular
    element as a failure placed at its label and residue, and counts it as
    blocked; the other labels and residues are still checked."""
    cfg = sweeps.BranchingSweepConfig(budgets=((2, 5), (3, 5)))
    clean = sweeps.run_branching_sweep(cfg)
    bad = fockspace.apply_f(fockspace.get_oracle(3).element((2, 1)).vector, 3, 1)
    skipped = sum(1 for _ in sweeps._induction_sets(sweeps.sign_sequence_of((2, 1), 3, 1)))

    def expand_in_canonical(x, oracle):
        if x == bad:
            raise fockspace.SingularPivotError("expansion pivot (1, 1, 1) is 3-singular")
        return expand_in_canonical.real(x, oracle)

    expand_in_canonical.real = sweeps.expand_in_canonical
    monkeypatch.setattr(sweeps, "expand_in_canonical", expand_in_canonical)
    report = sweeps.run_branching_sweep(cfg)

    assert clean.ok and clean.notes["blocked"] == 0
    assert report.failures == [{
        "kind": "singular-pivot", "lam": [2, 1], "e": 3, "r": 1,
        "message": "expansion pivot (1, 1, 1) is 3-singular",
    }]
    assert report.notes["blocked"] == 1
    assert not report.ok
    assert report.checked == clean.checked - skipped


def test_planted_failures_of_the_instance_sweeps(monkeypatch, tmp_path, capsys):
    def index_set_norms(t, a, b):
        left, right = index_set_norms.real(t, a, b)
        if len(b) == 1:
            right[99] += 1
        return left, right

    def build_bijection(t, a, b):
        if len(b) == 1:
            raise ConstructionError("split-pairing", "planted")
        return build_bijection.real(t, a, b)

    for plant in (index_set_norms, build_bijection):
        plant.real = getattr(sweeps, plant.__name__)
        monkeypatch.setattr(sweeps, plant.__name__, plant)

    lines = tmp_path / "instances.jsonl"
    bijection = sweeps.run_bijection_sweep(
        sweeps.BijectionSweepConfig(max_positions=4, samples=0, report_path=str(lines))
    )
    assert (len(bijection.failures), bijection.checked) == (18, 67)
    assert bijection.failures[0] == {
        "T": {"plus": [2], "minus": [1, 3]}, "A": [1, 3], "B": [2],
        "normsL": [1], "normsR": [1, 99],
    }
    records = [json.loads(line) for line in lines.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 67
    assert [r for r in records if not r["ok"]] == [dict(f, ok=False) for f in bijection.failures]

    construction = sweeps.run_construction_sweep(sweeps.ConstructionSweepConfig(max_positions=4))
    assert (construction.checked, construction.notes["built"]) == (67, 49)
    assert construction.notes["corners"] == {"split-pairing": 18}
    assert construction.failures == [
        dict(f, corner="split-pairing", multisets="mismatch") for f in bijection.failures
    ]

    assert main(["verify", "bijection", "--max-positions", "4", "--samples", "0"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  FAIL ")]
    assert fails == [f"  FAIL {json.dumps(f, sort_keys=True)}" for f in bijection.failures]
