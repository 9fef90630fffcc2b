"""Verification sweeps: formula vs oracle, branching, bijection, consistency.

Each sweep walks a budgeted family of instances, records every failure with
enough data to reproduce it, and returns a JSON-able report.  All sweeps
are deterministic for a fixed configuration (the random sampler takes an
explicit seed).  The formula, branching and consistency sweeps take
budgets of one shape, one (e, max_n) pair per modulus, and share one walk
over them (the two oracle-backed ones also one config and the oracles
along it), the branching and consistency sweeps and the exhaustive
instances one filter of onto column sets, and every failure on a partition
is placed by the same fields: lam, e, r, then A and B.

``SWEEPS`` holds each sweep's runner and its acceptance and deep configs
(frozen, as the entries are shared) for ``fockpath verify`` and
``scripts/run_acceptance.py``.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .bijection import ConstructionError, build_bijection, index_set_norms
from .closedform import (
    MoveSpec,
    apply_move,
    branching_coefficient,
    column_sets,
    consistency_sums,
    decomposition_paths,
    decomposition_polynomial,
    delete_first_row,
    norm_polynomial,
    sign_sequence_of,
)
from .fockspace import (
    SingularPivotError,
    apply_f,
    expand_in_canonical,
    get_oracle,
    is_e_regular,
)
from .laurent import ZERO, LaurentPolynomial
from .partitions import Partition, check_e, partitions_of
from .signseq import SignSequence, bracket_pairs, onto


@dataclass
class SweepReport:
    kind: str
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    seconds: float = 0.0  # wall time of the sweep

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, **data) -> None:
        self.failures.append(data)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "checked": self.checked,
            "ok": self.ok,
            "failures": self.failures,
            "notes": self.notes,
            # whole tenths, so a sweep of a few milliseconds reads 0.0 on
            # every run
            "seconds": math.floor(self.seconds * 10) / 10,
        }


def _timed(sweep):
    """Record the sweep's wall time in the report it returns."""

    @functools.wraps(sweep)
    def run(*args, **kwargs) -> SweepReport:
        start = time.perf_counter()
        report = sweep(*args, **kwargs)
        report.seconds = time.perf_counter() - start
        return report

    return run


# -- formula vs oracle (with output-shape checks) ---------------------------


@dataclass(frozen=True)
class FormulaSweepConfig:
    budgets: tuple[tuple[int, int], ...] = ((2, 12), (3, 10), (4, 9))
    cache_dir: str | None = None


# The branching sweep walks the same budgets against the same oracles.
BranchingSweepConfig = FormulaSweepConfig


@_timed
def run_formula_sweep(cfg: FormulaSweepConfig) -> SweepReport:
    """Every e-regular partition within budget, every residue, every pair of
    same-size column sets: the closed formula must equal the oracle
    coefficient exactly (0 when the matching is imperfect)."""
    report = SweepReport(kind="formula", notes={"nonzero": 0})
    for e, lam, oracle in _oracle_labels(cfg, report):
        for r in range(e):
            for a, b in column_sets(sign_sequence_of(lam, e, r), 0):
                move = MoveSpec(lam, e, r, a, b)
                collections = decomposition_paths(move)
                formula = norm_polynomial(collections)
                d = oracle.coefficient(move.target, lam)
                report.checked += 1
                if formula != d:
                    report.fail(**_where(lam, e, r, a, b), formula=str(formula), oracle=str(d))
                    continue
                if formula:
                    report.notes["nonzero"] += 1
                _check_shape(report, move, formula)
    return report


def _labels(budgets, regular: bool = True) -> Iterator[tuple[int, Partition]]:
    """(e, lam) for every partition lam of size at most max_n, e-regular
    unless regular is False, per (e, max_n) budget in order."""
    for e, _ in budgets:
        check_e(e)  # a modulus below 2 would sweep no residue at all, and pass
    for e, max_n in budgets:
        for n in range(max_n + 1):
            for lam in partitions_of(n):
                if not regular or is_e_regular(lam, e):
                    yield e, lam


def _induction_sets(t: SignSequence) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The column sets (A, B) of t with |A| = |B| + 1 and A onto B."""
    return ((a, b) for a, b in column_sets(t, 1) if onto(a, b))


def _where(lam, e: int, r: int, a=None, b=None) -> dict:
    """The fields that place a failure: lam, e, r, then any columns A and B."""
    where = {"lam": list(lam), "e": e, "r": r}
    if a is not None:
        where.update(A=sorted(a), B=sorted(b))
    return where


def _oracle_labels(cfg: FormulaSweepConfig, report: SweepReport) -> Iterator[tuple]:
    """(e, lam, oracle) over _labels(cfg.budgets), every oracle made up front.
    Then notes.oracle holds each one's counters over the walk, keyed by e as
    JSON keys are: the memo size at its end and every other counter's
    increase (the sweeps share oracles)."""
    oracles = {e: get_oracle(e, cfg.cache_dir) for e, _ in cfg.budgets}
    before = {e: oracle.stats() for e, oracle in oracles.items()}
    for e, lam in _labels(cfg.budgets):
        yield e, lam, oracles[e]
    report.notes["oracle"] = {
        str(e): {k: v if k == "memo_size" else v - before[e][k] for k, v in oracle.stats().items()}
        for e, oracle in oracles.items()
    }


def _check_shape(report: SweepReport, move: MoveSpec, poly: LaurentPolynomial) -> None:
    effective = move.added - move.removed
    if move.is_identity:
        if poly != 1:
            report.fail(kind="diagonal", **_where(move.lam, move.e, move.r), poly=str(poly))
        return
    if poly.is_zero:
        return
    where = _where(move.lam, move.e, move.r, move.added, move.removed)
    if not poly.in_positive_part():
        report.fail(kind="positivity", **where, poly=str(poly))
        return
    if poly.min_exponent < len(effective):
        report.fail(kind="low-degree", **where, poly=str(poly))
    # the norm of the all-generic collection, read off the sign sequence and
    # not the enumeration: each pair's closer rank less its opener rank
    rank = move.sign_sequence.ranks
    pairs, _, _ = bracket_pairs(move.added, move.removed)
    top = sum(rank[w] - rank[u] for u, w, _ in pairs if u != w)
    if poly.max_exponent != top or poly.coefficient(top) != 1:
        report.fail(kind="top-degree", **where, poly=str(poly))
    _check_first_row(report, move, poly)


def _check_first_row(report: SweepReport, move: MoveSpec, poly: LaurentPolynomial) -> None:
    """Moves touching no first-row node give the same polynomial after the
    first row is deleted (the residue shifts by one, columns stay put).  A
    move changes a row's length exactly when it moves a node in that row."""
    if move.target[:1] != move.lam[:1]:
        return
    trimmed = MoveSpec(
        delete_first_row(move.lam), move.e, (move.r + 1) % move.e,
        move.added, move.removed,
    )
    other = decomposition_polynomial(trimmed)
    if other != poly:
        report.fail(kind="first-row", **_where(move.lam, move.e, move.r, move.added, move.removed),
                    poly=str(poly), trimmed=str(other))


# -- branching cross-check ---------------------------------------------------


@_timed
def run_branching_sweep(cfg: BranchingSweepConfig) -> SweepReport:
    """Expand f_r of each canonical element in canonical elements and compare
    every move-shaped coefficient against the branching formula.

    An expansion that hits an e-singular pivot is a failure, counted in
    notes.blocked too: f_r G(mu) lies in the module generated by the vacuum,
    whose canonical basis is the e-regular G(nu) (Lascoux, Leclerc and
    Thibon, 1996), so only a wrong oracle gets there."""
    report = SweepReport(kind="branching", notes={"blocked": 0})
    for e, lam, oracle in _oracle_labels(cfg, report):
        g = oracle.element(lam).vector
        for r in range(e):
            try:
                coeffs = expand_in_canonical(apply_f(g, e, r), oracle)
            except SingularPivotError as exc:
                report.notes["blocked"] += 1
                report.fail(kind="singular-pivot", **_where(lam, e, r), message=str(exc))
                continue
            for a, b in _induction_sets(sign_sequence_of(lam, e, r)):
                formula = branching_coefficient(lam, e, r, a, b)
                extracted = coeffs.get(apply_move(lam, e, r, a, b), ZERO)
                report.checked += 1
                if formula != extracted:
                    report.fail(**_where(lam, e, r, a, b), formula=str(formula),
                                extracted=str(extracted))
    return report


# -- bijection identity and explicit construction ----------------------------


@dataclass(frozen=True)
class BijectionSweepConfig:
    max_positions: int = 8
    samples: int = 10000
    sample_positions: int = 12
    seed: int = 2011
    report_path: str | None = None  # one JSON line per instance, when set


def iter_exhaustive_instances(
    max_positions: int,
) -> Iterator[tuple[SignSequence, frozenset[int], frozenset[int]]]:
    """All sign assignments on 1..k (k <= max_positions) with all admissible
    added/removed subsets; only the order type matters, so contiguous
    positions lose no generality."""
    for k in range(1, max_positions + 1):
        for mask in range(2**k):
            plus = frozenset(i + 1 for i in range(k) if mask >> i & 1)
            t = SignSequence(plus, frozenset(range(1, k + 1)) - plus)
            for a, b in _induction_sets(t):
                yield t, frozenset(a), frozenset(b)


def sample_instances(
    count: int, max_positions: int, seed: int
) -> Iterator[tuple[SignSequence, frozenset[int], frozenset[int]]]:
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        k = rng.randint(2, max_positions)
        plus = frozenset(i for i in range(1, k + 1) if rng.random() < 0.5)
        minus = frozenset(range(1, k + 1)) - plus
        if not minus:
            continue
        nb = rng.randint(0, min(len(plus), len(minus) - 1))
        a = frozenset(rng.sample(sorted(minus), nb + 1))
        b = frozenset(rng.sample(sorted(plus), nb))
        if not onto(a, b):
            continue
        produced += 1
        yield SignSequence(plus, minus), a, b


@_timed
def run_bijection_sweep(cfg: BijectionSweepConfig) -> SweepReport:
    """Norm multisets of the two index sets must agree on every instance.

    With cfg.report_path, one JSON line per instance is written there:
    {"T": {...}, "A": [...], "B": [...], "ok": bool, "normsL": [...],
    "normsR": [...]}.
    """
    if cfg.samples > 0 and cfg.sample_positions < 2:
        # a sample needs two positions: fail before the exhaustive part runs
        raise ValueError(f"sample_positions must be at least 2, got {cfg.sample_positions}")
    report = SweepReport(kind="bijection")
    stream = open(cfg.report_path, "w", encoding="utf-8") if cfg.report_path else None
    try:
        def check(t, a, b):
            report.checked += 1
            left, right = index_set_norms(t, a, b)
            ok = left == right
            if ok and stream is None:
                return
            data = _instance_data(t, a, b, left, right)
            if not ok:
                report.fail(**data)
            if stream is not None:
                stream.write(json.dumps(dict(data, ok=ok), sort_keys=True) + "\n")

        for t, a, b in iter_exhaustive_instances(cfg.max_positions):
            check(t, a, b)
        sampled = 0
        for t, a, b in sample_instances(cfg.samples, cfg.sample_positions, cfg.seed):
            sampled += 1
            check(t, a, b)
        report.notes["sampled"] = sampled
    finally:
        if stream is not None:
            stream.close()
    return report


@dataclass(frozen=True)
class ConstructionSweepConfig:
    max_positions: int = 8


@_timed
def run_construction_sweep(cfg: ConstructionSweepConfig) -> SweepReport:
    """Build the explicit bijection on every exhaustive instance.

    build_bijection verifies totality, injectivity, surjectivity and norm
    preservation internally.  A ConstructionError is only tolerated when the
    norm multisets still agree on that instance; each one is logged with its
    corner tag."""
    report = SweepReport(kind="construction")
    logged: list[dict] = []
    for t, a, b in iter_exhaustive_instances(cfg.max_positions):
        report.checked += 1
        try:
            build_bijection(t, a, b)
        except ConstructionError as exc:
            left, right = index_set_norms(t, a, b)
            entry = dict(_instance_data(t, a, b, left, right), corner=exc.corner)
            logged.append(entry)
            if left != right:
                report.fail(**dict(entry, multisets="mismatch"))
    report.notes["built"] = report.checked - len(logged)
    report.notes["corners"] = dict(Counter(entry["corner"] for entry in logged))
    report.notes["construction_failures"] = logged
    report.notes["failure_rate"] = len(logged) / report.checked if report.checked else 0.0
    return report


def _instance_data(t: SignSequence, a, b, left: Counter[int], right: Counter[int]) -> dict:
    return {
        "T": {"plus": sorted(t.plus), "minus": sorted(t.minus)},
        "A": sorted(a),
        "B": sorted(b),
        "normsL": sorted(left.elements()),
        "normsR": sorted(right.elements()),
    }


# -- two-sided consistency on partitions -------------------------------------


@dataclass(frozen=True)
class ConsistencySweepConfig:
    budgets: tuple[tuple[int, int], ...] = ((2, 10), (3, 10))


@_timed
def run_consistency_sweep(cfg: ConsistencySweepConfig) -> SweepReport:
    """Left and right evaluations of the induction coefficient must agree for
    every partition within budget, e-singular ones included."""
    report = SweepReport(kind="consistency")
    for e, lam in _labels(cfg.budgets, regular=False):
        for r in range(e):
            for a, b in _induction_sets(sign_sequence_of(lam, e, r)):
                lhs, rhs = consistency_sums(lam, e, r, a, b)
                report.checked += 1
                if lhs != rhs:
                    report.fail(**_where(lam, e, r, a, b), left=str(lhs), right=str(rhs))
    return report


# -- the table of sweeps and tiers --------------------------------------------


@dataclass(frozen=True)
class Sweep:
    run: Callable[[Any], SweepReport]
    acceptance: Any  # the config class's defaults
    deep: Any


# Every sweep in the order verify lists and run_acceptance.py runs them; deep
# budgets start at n = 0, one per modulus.
SWEEPS = {
    "formula": Sweep(run_formula_sweep, FormulaSweepConfig(),
                     FormulaSweepConfig(budgets=((4, 16), (5, 16), (2, 24), (3, 22)))),
    "branching": Sweep(run_branching_sweep, BranchingSweepConfig(),
                       BranchingSweepConfig(budgets=((2, 22), (3, 20)))),
    "bijection": Sweep(run_bijection_sweep, BijectionSweepConfig(),
                       BijectionSweepConfig(max_positions=10, samples=0)),
    "construction": Sweep(run_construction_sweep, ConstructionSweepConfig(),
                          ConstructionSweepConfig(max_positions=9)),
    "consistency": Sweep(run_consistency_sweep, ConsistencySweepConfig(),
                         ConsistencySweepConfig(budgets=((2, 18), (3, 18)))),
}
