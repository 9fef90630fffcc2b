"""The benchmark workloads: inputs made from a seed, the timed calls into
fockpath's public functions, and the output gate.

Only modules are imported from fockpath, never names, so that every call
below goes through a module attribute the tracer can patch.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from fockpath import closedform, fockspace, sweeps

HERE = os.path.dirname(os.path.abspath(__file__))

# Formula sweep and branching sweep budgets of both oracle workloads.
ORACLE_BUDGETS = ((2, 16), (3, 12))
# Construction sweep: every instance on up to this many positions.
CONSTRUCTION_POSITIONS = 6
# Norm-multiset sweep: seeded samples on up to this many positions.
SAMPLES = 2000
SAMPLE_POSITIONS = 12
# formula-wide: seeded moves, drawn a few per seeded partition.
WIDE_MOVES = 8000
WIDE_MOVES_PER_PARTITION = 4
WIDE_ROWS = (12, 14)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def load_recorded() -> dict:
    with open(os.path.join(HERE, "recorded.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    """Failed items of one repetition, with a line of evidence for each kind."""

    def __init__(self):
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.fail(1, f"{what}: got {got}, recorded {want}")

    def sweep(self, report) -> None:
        self.fail(len(report.failures), f"{report.kind} sweep failures: {report.failures[:3]}")


# -- oracle-cold and oracle-cached -------------------------------------------


class OracleWorkload:
    """Formula and branching sweeps against the canonical-basis oracle.

    On oracle-cached, set-up first calls ``write_cache`` in a process of its
    own, and the timed run starts from a cold in-memory oracle that loads the
    levels.  The inputs are the fixed budgets: this workload does not depend
    on the seed.
    """

    def write_cache(self, directory: str) -> None:
        """Every level the sweeps read; the branching sweep expands f_r of
        each element, so it reads one level above each budget."""
        for e, max_n in ORACLE_BUDGETS:
            oracle = fockspace.CanonicalBasisOracle(e, directory)
            for n in range(max_n + 2):
                oracle.save_level(n)

    def prepare(self, seed: int):
        return None

    def run(self, inputs, cache_dir: str | None):
        formula = sweeps.run_formula_sweep(
            sweeps.FormulaSweepConfig(budgets=ORACLE_BUDGETS, cache_dir=cache_dir))
        branching = sweeps.run_branching_sweep(
            sweeps.BranchingSweepConfig(budgets=ORACLE_BUDGETS, cache_dir=cache_dir))
        return formula, branching

    def checks(self, outcome) -> int:
        return sum(report.checked for report in outcome)

    def gate(self, outcome, inputs, seed: int, recorded: dict) -> Gate:
        formula, branching = outcome
        want = recorded["oracle"]
        gate = Gate()
        gate.sweep(formula)
        gate.sweep(branching)
        gate.expect("formula checked", formula.checked, want["formula"]["checked"])
        gate.expect("formula nonzero", formula.notes["nonzero"], want["formula"]["nonzero"])
        gate.expect("branching checked", branching.checked, want["branching"]["checked"])
        gate.expect("branching blocked", branching.notes["blocked"], want["branching"]["blocked"])
        return gate

    def record(self, outcome, inputs) -> dict:
        formula, branching = outcome
        return {
            "formula": {"checked": formula.checked, "nonzero": formula.notes["nonzero"]},
            "branching": {"checked": branching.checked, "blocked": branching.notes["blocked"]},
        }


# -- bijection ---------------------------------------------------------------


class BijectionWorkload:
    """The construction sweep on every instance up to CONSTRUCTION_POSITIONS
    positions (seed-independent), plus the norm-multiset sweep on SAMPLES
    instances that the sweep draws from the seed."""

    def prepare(self, seed: int):
        return seed

    def run(self, seed: int, cache_dir: str | None):
        construction = sweeps.run_construction_sweep(
            sweeps.ConstructionSweepConfig(max_positions=CONSTRUCTION_POSITIONS))
        samples = sweeps.run_bijection_sweep(sweeps.BijectionSweepConfig(
            max_positions=0, samples=SAMPLES, sample_positions=SAMPLE_POSITIONS, seed=seed))
        return construction, samples

    def checks(self, outcome) -> int:
        return sum(report.checked for report in outcome)

    @staticmethod
    def sample_digest(seed: int) -> str:
        return digest(
            f"{sorted(t.plus)}|{sorted(t.minus)}|{sorted(a)}|{sorted(b)}"
            for t, a, b in sweeps.sample_instances(SAMPLES, SAMPLE_POSITIONS, seed)
        )

    def gate(self, outcome, inputs, seed: int, recorded: dict) -> Gate:
        construction, samples = outcome
        want = recorded["bijection"]
        gate = Gate()
        gate.sweep(construction)
        gate.sweep(samples)
        logged = construction.notes["construction_failures"]
        gate.fail(len(logged), f"logged ConstructionError: {logged[:3]}")
        gate.expect("construction checked", construction.checked, want["construction"]["checked"])
        gate.expect("construction built", construction.notes["built"], want["construction"]["built"])
        gate.expect("bijection checked", samples.checked, want["samples"]["checked"])
        gate.expect("bijection sampled", samples.notes["sampled"], want["samples"]["sampled"])
        if str(seed) in want["sample_digests"]:
            gate.expect("sample digest", self.sample_digest(seed), want["sample_digests"][str(seed)])
        return gate

    def record(self, outcome, inputs) -> dict:
        construction, samples = outcome
        return {
            "construction": {"checked": construction.checked,
                             "built": construction.notes["built"]},
            "samples": {"checked": samples.checked, "sampled": samples.notes["sampled"]},
        }


# -- formula-wide ------------------------------------------------------------


def wide_partition(rng: random.Random) -> tuple[int, ...]:
    """Distinct parts, WIDE_ROWS rows, every gap (the last part included) 1
    or 2.  At e=2 each row then has exactly one r-node for either residue."""
    parts = [rng.randint(1, 2)]
    for _ in range(rng.randint(*WIDE_ROWS) - 1):
        parts.append(parts[-1] + rng.randint(1, 2))
    return tuple(reversed(parts))


def r_nodes(lam: tuple[int, ...], r: int) -> dict[int, tuple[int, int]]:
    """Column -> (sign, row) of the e=2 r-nodes of a partition with distinct
    parts: +1 for the removable node ending a row, -1 for the indent node
    after it, and the indent node in column 1 below the last row.

    Worked out here rather than taken from fockpath, so the gate can compare
    it with ``closedform.sign_sequence_of``.
    """
    out = {}
    for row, part in enumerate(lam, start=1):
        if (part - row) % 2 == r:
            out[part] = (1, row)
        else:
            out[part + 1] = (-1, row)
    if -len(lam) % 2 == r:
        out[1] = (-1, len(lam) + 1)
    return out


def uniform_moves(nodes: dict[int, tuple[int, int]], count: int, rng: random.Random):
    """``count`` admissible moves drawn uniformly: added indent columns A and
    removed columns B whose bracket matching (A opens, B closes) is perfect.

    ways[j][h] counts the choices on columns j.. that close h open brackets.
    """
    cols = sorted(nodes)
    signs = [nodes[c][0] for c in cols]
    m = len(cols)
    ways = [[0] * (m + 2) for _ in range(m + 1)]
    ways[m][0] = 1
    for j in range(m - 1, -1, -1):
        for h in range(m + 1):
            take = ways[j + 1][h + 1] if signs[j] < 0 else (ways[j + 1][h - 1] if h else 0)
            ways[j][h] = ways[j + 1][h] + take
    for _ in range(count):
        h, a, b = 0, [], []
        for j, col in enumerate(cols):
            if rng.randrange(ways[j][h]) < ways[j + 1][h]:
                continue
            if signs[j] < 0:
                a.append(col)
                h += 1
            else:
                b.append(col)
                h -= 1
        yield frozenset(a), frozenset(b)


def generic_norm(nodes: dict[int, tuple[int, int]], a, b) -> int:
    """Norm of the all-generic collection, the top degree of the polynomial:
    one plus the number of r-node columns inside each matched pair."""
    cols = sorted(nodes)
    stack, norm = [], 0
    for col in sorted(a | b):
        if col in a:
            stack.append(col)
        else:
            opener = stack.pop()
            norm += 1 + sum(1 for x in cols if opener < x < col)
    return norm


class FormulaWideWorkload:
    """decomposition_polynomial on WIDE_MOVES seeded moves of seeded wide
    partitions at e=2; no oracle.  A few uniform moves per partition keep the
    work per seed steady, where whole partitions vary by a factor of 100."""

    def prepare(self, seed: int):
        rng = random.Random(seed)
        moves = []
        while len(moves) < WIDE_MOVES:
            lam = wide_partition(rng)
            r = rng.randrange(2)
            for a, b in uniform_moves(r_nodes(lam, r), WIDE_MOVES_PER_PARTITION, rng):
                moves.append((lam, r, a, b))
        return moves[:WIDE_MOVES]

    def run(self, moves, cache_dir: str | None):
        return [
            closedform.decomposition_polynomial(closedform.MoveSpec(lam, 2, r, a, b))
            for lam, r, a, b in moves
        ]

    def checks(self, outcome) -> int:
        return len(outcome)

    @staticmethod
    def records(moves, polys):
        for (lam, r, a, b), poly in zip(moves, polys):
            yield f"{list(lam)}|{r}|{sorted(a)}|{sorted(b)}|{list(poly.items())}"

    def gate(self, outcome, moves, seed: int, recorded: dict) -> Gate:
        want = recorded["formula-wide"]
        gate = Gate()
        gate.expect("moves", len(outcome), want["checks"])
        if str(seed) in want["digests"]:
            gate.expect("record digest", digest(self.records(moves, outcome)),
                        want["digests"][str(seed)])
        bad: dict[str, list] = {}
        for i, ((lam, r, a, b), poly) in enumerate(zip(moves, outcome)):
            nodes = r_nodes(lam, r)
            for kind in _shape_faults(lam, r, a, b, poly, nodes, first_row=i % 10 == 0):
                bad.setdefault(kind, []).append((lam, r, sorted(a), sorted(b), str(poly)))
        for kind, items in bad.items():
            gate.fail(len(items), f"{kind}: {items[:3]}")
        return gate

    def record(self, outcome, moves) -> dict:
        return {"checks": len(outcome)}


def _shape_faults(lam, r, a, b, poly, nodes, first_row: bool):
    """Acceptance criterion 6 on one move: diagonal 1, positivity, degree
    bounds, and (on every tenth move) invariance under deleting row 1."""
    t = closedform.sign_sequence_of(lam, 2, r)
    if t.plus != {c for c, (s, _) in nodes.items() if s > 0} or \
            t.minus != {c for c, (s, _) in nodes.items() if s < 0}:
        yield "sign sequence differs from the r-nodes"
    if not a:
        if poly != 1:
            yield "diagonal"
        return
    if not poly.in_positive_part():
        yield "positivity"
        return
    if poly.min_exponent < len(a):
        yield "low-degree"
    top = generic_norm(nodes, a, b)
    if poly.max_exponent != top or poly.coefficient(top) != 1:
        yield "top-degree"
    if first_row and all(nodes[c][1] != 1 for c in a | b):
        trimmed = closedform.MoveSpec(lam[1:], 2, (r + 1) % 2, a, b)
        if closedform.decomposition_polynomial(trimmed) != poly:
            yield "first-row"


WORKLOADS = {
    "oracle-cold": OracleWorkload(),
    "oracle-cached": OracleWorkload(),
    "bijection": BijectionWorkload(),
    "formula-wide": FormulaWideWorkload(),
}
