"""Acceptance criteria, run at full stated budgets.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s or in the
captured summary).  Budgets: exact formula agreement for e=2 up to size 12,
e=3 up to 10, e=4 up to 9; bijection identity exhaustive on up to 8
positions plus 10,000 seeded samples on up to 12; consistency for all
partitions (singular included) up to size 10 at e in {2,3}.  Criteria 1-5
also pin the counts their sweeps report at these budgets.
"""

import time
from itertools import combinations

import pytest

from fockpath import sweeps
from fockpath.latticepath import latticed_paths, latticed_paths_by_flattening
from fockpath.partitions import (
    Comparison,
    compare_classes,
    dominates,
    jantzen_successors,
    partitions_of,
)
from fockpath.signseq import SignSequence, match_pairs, onto, preceq
from fockpath.sweeps import (
    BijectionSweepConfig,
    BranchingSweepConfig,
    ConsistencySweepConfig,
    ConstructionSweepConfig,
    FormulaSweepConfig,
)

FULL_BUDGETS = ((2, 12), (3, 10), (4, 9))


def report_line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def formula_report():
    t0 = time.time()
    report = sweeps.run_formula_sweep(FormulaSweepConfig(budgets=FULL_BUDGETS))
    report.notes["seconds"] = round(time.time() - t0, 1)
    return report


def test_criterion_1_formula_equals_oracle(formula_report):
    mismatches = [f for f in formula_report.failures if "formula" in f]
    ok = not mismatches
    report_line(
        "criterion 1 (formula = oracle, zero tolerance)",
        ok,
        f"{formula_report.checked} moves over e/max-n {FULL_BUDGETS}, "
        f"{formula_report.notes['nonzero']} nonzero, "
        f"{len(mismatches)} mismatches, {formula_report.notes['seconds']}s",
    )
    assert ok, mismatches[:5]
    assert (formula_report.checked, formula_report.notes["nonzero"]) == (1035, 914)


def test_criterion_2_branching_cross_check():
    t0 = time.time()
    report = sweeps.run_branching_sweep(BranchingSweepConfig(budgets=FULL_BUDGETS))
    ok = report.ok
    report_line(
        "criterion 2 (branching formula vs canonical expansion)",
        ok,
        f"{report.checked} coefficients, {report.notes['blocked']} blocked by "
        f"singular pivots, {len(report.failures)} mismatches, "
        f"{round(time.time() - t0, 1)}s",
    )
    assert ok, report.failures[:5]
    assert (report.checked, report.notes["blocked"]) == (799, 0)


def test_criterion_3_norm_multisets():
    t0 = time.time()
    report = sweeps.run_bijection_sweep(
        BijectionSweepConfig(max_positions=8, samples=10000, sample_positions=12, seed=2011)
    )
    elapsed = time.time() - t0
    ok = report.ok and elapsed < 300
    report_line(
        "criterion 3 (norm multisets, exhaustive <=8 plus 10000 samples <=12)",
        ok,
        f"{report.checked} instances, {len(report.failures)} failures, "
        f"{round(elapsed, 1)}s (budget 300s)",
    )
    assert report.ok, report.failures[:5]
    assert elapsed < 300
    assert (report.checked, report.notes["sampled"]) == (19878, 10000)


def test_criterion_4_constructive_bijection():
    t0 = time.time()
    report = sweeps.run_construction_sweep(ConstructionSweepConfig(max_positions=8))
    failures = report.notes["construction_failures"]
    # every construction failure must be tagged with its corner and must not
    # hide a norm-multiset discrepancy
    attributed = all("corner" in f for f in failures)
    ok = report.ok and attributed
    report_line(
        "criterion 4 (explicit bijection total/injective/norm-preserving)",
        ok,
        f"{report.checked} instances, built {report.notes['built']}, "
        f"failure rate {report.notes['failure_rate']:.4f}, "
        f"corners {report.notes['corners']}, {round(time.time() - t0, 1)}s",
    )
    for f in failures:
        print(f"  construction failure: {f}")
    assert ok, report.failures[:5]
    assert (report.checked, report.notes["built"], report.notes["corners"]) == (9878, 9878, {})


def test_criterion_5_consistency_identity():
    t0 = time.time()
    report = sweeps.run_consistency_sweep(
        ConsistencySweepConfig(budgets=((2, 10), (3, 10)))
    )
    ok = report.ok
    report_line(
        "criterion 5 (left = right, all partitions <=10 incl. singular)",
        ok,
        f"{report.checked} instances, {len(report.failures)} mismatches, "
        f"{round(time.time() - t0, 1)}s",
    )
    assert ok, report.failures[:5]
    assert report.checked == 958


def test_criterion_6_output_shapes(formula_report):
    shape_failures = [f for f in formula_report.failures if "kind" in f]
    ok = not shape_failures
    report_line(
        "criterion 6 (positivity, diagonal 1, degree bounds, first-row removal)",
        ok,
        f"checked inside the formula sweep, {len(shape_failures)} violations",
    )
    assert ok, shape_failures[:5]


def test_criterion_7_worked_figures():
    m = match_pairs({2, 3, 10}, {5, 6, 8})
    pairing_ok = (
        m.partner(2) == 6
        and m.partner(3) == 5
        and m.unpaired_openers == {10}
        and m.unpaired_closers == {8}
        and not onto({2, 3, 10}, {5, 6, 8})
    )
    nine = SignSequence(frozenset({2, 3, 5, 9}), frozenset({1, 4, 6, 7, 8}))
    norms = sorted((p.norm for p in latticed_paths(nine)), reverse=True)
    paths_ok = norms == [10, 8, 8, 6, 4]
    ok = pairing_ok and paths_ok
    report_line(
        "criterion 7 (worked pairing and latticed-path figures)",
        ok,
        f"pairing {'ok' if pairing_ok else 'BAD'}, norms {norms}",
    )
    assert ok


def _all_windows(max_positions):
    for k in range(max_positions + 1):
        for mask in range(2**k if k else 1):
            yield SignSequence(
                frozenset(i + 1 for i in range(k) if mask >> i & 1),
                frozenset(i + 1 for i in range(k) if not mask >> i & 1),
            )


def _check_preceq_pattern(xs, ys):
    elements = []
    for ka in range(len(xs) + 1):
        for a in combinations(xs, ka):
            for kb in range(len(ys) + 1):
                for b in combinations(ys, kb):
                    if onto(a, b):
                        elements.append((frozenset(a), frozenset(b)))
    n = len(elements)
    succ = [0] * n
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            if preceq(p[0], p[1], q[0], q[1]):
                succ[i] |= 1 << j
    for i in range(n):
        assert succ[i] >> i & 1  # reflexive
        rest = succ[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if succ[j] >> i & 1:
                assert i == j  # antisymmetric
            assert succ[j] & ~succ[i] == 0  # transitive


def test_criterion_8_combinatorial_cross_checks():
    t0 = time.time()
    # fast vs slow latticed-path enumeration, all windows on <=10 positions
    windows = 0
    for window in _all_windows(10):
        windows += 1
        fast = set(latticed_paths(window))
        slow = latticed_paths_by_flattening(window)
        assert fast == slow, window
        for path in fast:
            assert path.norm == 1 + 2 * len(path.down_positions()) + window.size
    # the union-pairing order is a partial order, patterns up to 4 + 4
    patterns = 0
    for k in range(2, 9):
        for mask in range(2**k):
            xs = tuple(i + 1 for i in range(k) if mask >> i & 1)
            ys = tuple(i + 1 for i in range(k) if not mask >> i & 1)
            if not xs or not ys or len(xs) > 4 or len(ys) > 4:
                continue
            patterns += 1
            _check_preceq_pattern(xs, ys)
    # one step of the bead-swap relation never raises a residue-class profile
    steps = 0
    for e in (2, 3):
        for n in range(9):
            for lam in partitions_of(n):
                for tau in jantzen_successors(lam, e):
                    steps += 1
                    assert dominates(lam, tau) and lam != tau
                    for r in range(e):
                        assert compare_classes(lam, tau, e, r) != Comparison.LESS
    report_line(
        "criterion 8 (fast=slow paths, norm identity, order axioms, step monotonicity)",
        True,
        f"{windows} windows, {patterns} order patterns, {steps} bead-swap steps, "
        f"{round(time.time() - t0, 1)}s",
    )
