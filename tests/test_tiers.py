"""The budgets of both tiers in sweeps.SWEEPS never fall below these floors.

A budget may grow without a test edit: each (e, n) floor is covered by a
budget (e, n') with n' >= n, and each count floor by a count at least as
large.
"""

import pytest

from fockpath import sweeps

ACCEPTANCE_FLOORS = {
    "formula": {"budgets": ((2, 12), (3, 10), (4, 9))},
    "branching": {"budgets": ((2, 12), (3, 10), (4, 9))},
    "bijection": {"max_positions": 8, "samples": 10000, "sample_positions": 12},
    "construction": {"max_positions": 8},
    "consistency": {"budgets": ((2, 10), (3, 10))},
}
DEEP_FLOORS = {
    "formula": {"budgets": ((4, 16), (5, 16), (2, 24), (3, 22))},
    "branching": {"budgets": ((2, 22), (3, 20))},
    "bijection": {"max_positions": 10, "samples": 0},
    "construction": {"max_positions": 9},
    "consistency": {"budgets": ((2, 18), (3, 18))},
}


def _shortfalls(cfg, floors: dict) -> list:
    """The floors that cfg does not cover."""
    short = []
    for name, floor in floors.items():
        have = getattr(cfg, name)
        if name == "budgets":
            short += [(e, n) for e, n in floor if not any(e2 == e and n2 >= n for e2, n2 in have)]
        elif have < floor:
            short.append((name, floor))
    return short


def test_every_sweep_has_a_floor_in_both_tiers():
    assert list(ACCEPTANCE_FLOORS) == list(DEEP_FLOORS) == list(sweeps.SWEEPS)


@pytest.mark.parametrize("kind", list(sweeps.SWEEPS))
def test_no_budget_falls_below_its_floor(kind):
    sweep = sweeps.SWEEPS[kind]
    assert _shortfalls(sweep.acceptance, ACCEPTANCE_FLOORS[kind]) == []
    assert _shortfalls(sweep.deep, DEEP_FLOORS[kind]) == []


@pytest.mark.parametrize("kind", list(sweeps.SWEEPS))
def test_each_deep_tier_reaches_at_least_its_acceptance_tier(kind):
    # The exhaustive budgets only: the deep bijection tier draws no samples,
    # and the deep branching tier sweeps e = 2 and 3 only; --deep runs the
    # acceptance tier first, which keeps both.
    sweep = sweeps.SWEEPS[kind]
    if hasattr(sweep.acceptance, "budgets"):
        moduli = {e for e, _ in sweep.deep.budgets}
        floors = {"budgets": tuple((e, n) for e, n in sweep.acceptance.budgets if e in moduli)}
    else:
        floors = {"max_positions": sweep.acceptance.max_positions}
    assert _shortfalls(sweep.deep, floors) == []
