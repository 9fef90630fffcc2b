"""The failure records of the partition sweeps, pinned under planted faults.

Each sweep reports a failure with the fields that place it (lam, e, r and,
for a move or an induction instance, A and B) ahead of what disagreed.  The
faults below break a chosen share of checks of every kind, and the records
they produce are pinned by count and by digest.
"""

import hashlib
import json
from collections import Counter

from fockpath import fockspace, sweeps
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
    consistency = sweeps.run_consistency_sweep(sweeps.ConsistencySweepConfig(max_n=7))

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
