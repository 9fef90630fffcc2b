"""Verification sweeps: formula vs oracle, branching, bijection, consistency.

Each sweep walks a budgeted family of instances, records every failure with
enough data to reproduce it, and returns a JSON-able report.  All sweeps
are deterministic for a fixed configuration (the random sampler takes an
explicit seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator

from .bijection import (
    ConstructionError,
    build_bijection,
    left_elements,
    norm_multisets_match,
    right_elements,
)
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
from .latticepath import WellNestedCollection
from .laurent import ZERO, LaurentPolynomial
from .partitions import boundary_nodes, partitions_of
from .signseq import SignSequence, onto


@dataclass
class SweepReport:
    kind: str
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

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
        }


# -- formula vs oracle (with output-shape checks) ---------------------------


@dataclass
class FormulaSweepConfig:
    budgets: tuple[tuple[int, int], ...] = ((2, 12), (3, 10), (4, 9))
    cache_dir: str | None = None


def run_formula_sweep(cfg: FormulaSweepConfig) -> SweepReport:
    """Every e-regular partition within budget, every residue, every pair of
    same-size column sets: the closed formula must equal the oracle
    coefficient exactly (0 when the matching is imperfect)."""
    report = SweepReport(kind="formula")
    nonzero = 0
    for e, max_n in cfg.budgets:
        oracle = get_oracle(e, cfg.cache_dir)
        for n in range(max_n + 1):
            for lam in partitions_of(n):
                if not is_e_regular(lam, e):
                    continue
                for r in range(e):
                    for a, b in column_sets(sign_sequence_of(lam, e, r), 0):
                        move = MoveSpec(lam, e, r, frozenset(a), frozenset(b))
                        collections = decomposition_paths(move)
                        formula = norm_polynomial(collections)
                        target = move.target
                        d = oracle.coefficient(target, lam)
                        report.checked += 1
                        if formula != d:
                            report.fail(
                                lam=list(lam), e=e, r=r, A=list(a), B=list(b),
                                formula=str(formula), oracle=str(d),
                            )
                            continue
                        if formula:
                            nonzero += 1
                        _check_shape(report, move, formula, collections)
    report.notes["nonzero"] = nonzero
    return report


def _check_shape(
    report: SweepReport,
    move: MoveSpec,
    poly: LaurentPolynomial,
    collections: tuple[WellNestedCollection, ...],
) -> None:
    effective = move.added - move.removed
    if move.is_identity:
        if poly != 1:
            report.fail(kind="diagonal", lam=list(move.lam), e=move.e, r=move.r,
                        poly=str(poly))
        return
    if poly.is_zero:
        return
    if not poly.in_positive_part():
        report.fail(kind="positivity", lam=list(move.lam), e=move.e, r=move.r,
                    A=sorted(move.added), B=sorted(move.removed), poly=str(poly))
        return
    if poly.min_exponent < len(effective):
        report.fail(kind="low-degree", lam=list(move.lam), e=move.e, r=move.r,
                    A=sorted(move.added), B=sorted(move.removed), poly=str(poly))
    top = max(c.norm for c in collections)
    if poly.max_exponent != top or poly.coefficient(top) != 1:
        report.fail(kind="top-degree", lam=list(move.lam), e=move.e, r=move.r,
                    A=sorted(move.added), B=sorted(move.removed), poly=str(poly))
    _check_first_row(report, move, poly)


def _check_first_row(report: SweepReport, move: MoveSpec, poly: LaurentPolynomial) -> None:
    """Moves touching no first-row node give the same polynomial after the
    first row is deleted (the residue shifts by one, columns stay put)."""
    if not move.lam:
        return
    removable, indent = boundary_nodes(move.lam, move.e, move.r)
    rows = {n[1]: n[0] for n in removable + indent}
    touched = move.added ^ move.removed
    if any(rows[c] == 1 for c in touched):
        return
    trimmed = MoveSpec(
        delete_first_row(move.lam), move.e, (move.r + 1) % move.e,
        move.added, move.removed,
    )
    other = decomposition_polynomial(trimmed)
    if other != poly:
        report.fail(kind="first-row", lam=list(move.lam), e=move.e, r=move.r,
                    A=sorted(move.added), B=sorted(move.removed),
                    poly=str(poly), trimmed=str(other))


# -- branching cross-check ---------------------------------------------------


@dataclass
class BranchingSweepConfig:
    budgets: tuple[tuple[int, int], ...] = ((2, 12), (3, 10), (4, 9))
    cache_dir: str | None = None


def run_branching_sweep(cfg: BranchingSweepConfig) -> SweepReport:
    """Expand f_r of each canonical element in canonical elements and compare
    every move-shaped coefficient against the branching formula.

    Expansions that hit an e-singular pivot are counted as blocked and
    skipped (only regular targets are extractable)."""
    report = SweepReport(kind="branching")
    blocked = 0
    for e, max_n in cfg.budgets:
        oracle = get_oracle(e, cfg.cache_dir)
        for n in range(max_n + 1):
            for lam in partitions_of(n):
                if not is_e_regular(lam, e):
                    continue
                g = oracle.element(lam).vector
                for r in range(e):
                    x = apply_f(g, e, r)
                    try:
                        coeffs = expand_in_canonical(x, e, oracle)
                    except SingularPivotError:
                        blocked += 1
                        continue
                    for a, b in column_sets(sign_sequence_of(lam, e, r), 1):
                        if not onto(a, b):
                            continue
                        formula = branching_coefficient(lam, e, r, a, b)
                        target = apply_move(lam, e, r, a, b)
                        extracted = coeffs.get(target, ZERO)
                        report.checked += 1
                        if formula != extracted:
                            report.fail(
                                lam=list(lam), e=e, r=r, A=list(a), B=list(b),
                                formula=str(formula), extracted=str(extracted),
                            )
    report.notes["blocked"] = blocked
    return report


# -- bijection identity and explicit construction ----------------------------


@dataclass
class BijectionSweepConfig:
    max_positions: int = 8
    samples: int = 10000
    sample_positions: int = 12
    seed: int = 2011


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
            for a, b in column_sets(t, 1):
                if onto(a, b):
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
        t = SignSequence(plus, minus)
        nb = rng.randint(0, min(len(plus), len(minus) - 1))
        a = frozenset(rng.sample(sorted(minus), nb + 1))
        b = frozenset(rng.sample(sorted(plus), nb))
        if not onto(a, b):
            continue
        produced += 1
        yield t, a, b


def run_bijection_sweep(cfg: BijectionSweepConfig, report_path: str | None = None) -> SweepReport:
    """Norm multisets of the two index sets must agree on every instance.

    With report_path, one JSON line per instance is written:
    {"T": {...}, "A": [...], "B": [...], "ok": bool, "normsL": [...],
    "normsR": [...]}.
    """
    report = SweepReport(kind="bijection")
    stream = open(report_path, "w", encoding="utf-8") if report_path else None
    try:
        def check(t, a, b):
            report.checked += 1
            data = _instance_data(t, a, b)
            ok = data["normsL"] == data["normsR"]
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


@dataclass
class ConstructionSweepConfig:
    max_positions: int = 8


def run_construction_sweep(cfg: ConstructionSweepConfig) -> SweepReport:
    """Build the explicit bijection on every exhaustive instance.

    build_bijection verifies totality, injectivity, surjectivity and norm
    preservation internally.  A ConstructionError is only tolerated when the
    norm multisets still agree on that instance; each one is logged with its
    corner tag."""
    report = SweepReport(kind="construction")
    corners: dict[str, int] = {}
    logged: list[dict] = []
    built = 0
    for t, a, b in iter_exhaustive_instances(cfg.max_positions):
        report.checked += 1
        try:
            build_bijection(t, a, b)
            built += 1
        except ConstructionError as exc:
            corners[exc.corner] = corners.get(exc.corner, 0) + 1
            entry = dict(_instance_data(t, a, b), corner=exc.corner)
            logged.append(entry)
            if not norm_multisets_match(t, a, b):
                report.fail(**dict(entry, multisets="mismatch"))
    report.notes["built"] = built
    report.notes["corners"] = corners
    report.notes["construction_failures"] = logged
    report.notes["failure_rate"] = (
        0.0 if report.checked == 0 else 1.0 - built / report.checked
    )
    return report


def _instance_data(t: SignSequence, a, b) -> dict:
    return {
        "T": {"plus": sorted(t.plus), "minus": sorted(t.minus)},
        "A": sorted(a),
        "B": sorted(b),
        "normsL": sorted(el.norm for el in left_elements(t, a, b)),
        "normsR": sorted(el.norm for el in right_elements(t, a, b)),
    }


# -- two-sided consistency on partitions -------------------------------------


@dataclass
class ConsistencySweepConfig:
    e_values: tuple[int, ...] = (2, 3)
    max_n: int = 10


def run_consistency_sweep(cfg: ConsistencySweepConfig) -> SweepReport:
    """Left and right evaluations of the induction coefficient must agree for
    every partition within budget, e-singular ones included."""
    report = SweepReport(kind="consistency")
    for e in cfg.e_values:
        for n in range(cfg.max_n + 1):
            for lam in partitions_of(n):
                for r in range(e):
                    for a, b in column_sets(sign_sequence_of(lam, e, r), 1):
                        if not onto(a, b):
                            continue
                        lhs, rhs = consistency_sums(lam, e, r, a, b)
                        report.checked += 1
                        if lhs != rhs:
                            report.fail(
                                lam=list(lam), e=e, r=r, A=list(a), B=list(b),
                                left=str(lhs), right=str(rhs),
                            )
    return report
