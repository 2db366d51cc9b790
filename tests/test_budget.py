"""budget.charge is the one place that compares work against a budget:
each charge site refuses exactly past its work with a message that ends
in the limit, and no other module reads the budget or raises an
over-budget BudgetError of its own."""

import ast
import functools
from pathlib import Path

import pytest

from nmdscodes import budget, param_search, subset_designs
from nmdscodes.code_analysis import weight_distribution_bruteforce
from nmdscodes.code_builder import nmds_structural_check
from nmdscodes.errors import BudgetError
from nmdscodes.param_search import construct, find_curve, search_parameters
from nmdscodes.subset_designs import (
    AbelianGroup,
    DesignInstance,
    brute_force_counts,
    subset_sum_blocks,
    verify_design,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "nmdscodes"


def test_charge_returns_the_limit_in_force_and_refuses_past_it(monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    assert budget.charge(10, None, 10, "x") == 10
    assert budget.charge(0, 3, 10, "x") == 3
    monkeypatch.setenv("NMDS_BUDGET", "5")
    assert budget.charge(5, None, 10, "x") == 5
    assert budget.charge(7, 7, 10, "x") == 7
    with pytest.raises(BudgetError) as exc:
        budget.charge(6, None, 10, "6 things exceed budget")
    assert str(exc.value) == "6 things exceed budget 5"
    with pytest.raises(BudgetError) as exc:
        budget.charge(1, 0, 10, "1 thing exceeds budget")
    assert str(exc.value) == "1 thing exceeds budget 0"


@functools.cache
def _code():
    return construct(7, 3, 3).code


class _Reached(Exception):
    """Raised by a patched step to show that a charge let the work start."""


def _scan_before_any_table(limit, monkeypatch):
    def reached(q):
        raise _Reached

    monkeypatch.setattr(param_search, "_field_for", reached)
    param_search._scan(343, 19, limit)


def _blocks(factors, k):
    group = AbelianGroup(factors)
    return lambda limit, _: subset_sum_blocks(group, k, group.zero(), budget=limit)


# (work, message before the limit, the call charged it under a budget)
SITES = {
    "sweep": (
        117649, "117649 messages exceed sweep budget",
        lambda limit, _: weight_distribution_bruteforce(_code(), budget=limit),
    ),
    "column cells": (
        8316, "8316 submatrix cells of column subsets exceed budget",
        lambda limit, _: nmds_structural_check(_code(), budget=limit),
    ),
    "points": (
        7, "field order 7 exceeds point budget",
        lambda limit, _: construct(7, 3, 3).curve.points(limit),
    ),
    "prime bound": (
        100, "prime bound 100 exceeds budget",
        lambda limit, _: search_parameters(100, budget=limit),
    ),
    "curve scan, first candidate": (
        343, "curve scan for q=343 exceeded budget", _scan_before_any_table,
    ),
    "curve scan, every candidate": (
        14, "curve scan for q=7 exceeded budget",  # y^2 = x^3 + 2 is the second
        lambda limit, _: find_curve(7, 3, budget=limit),
    ),
    "subset-sum table": (
        6875, "the subset-sum table needs n(k+1)|G| = 25*11*25 = 6875 cell updates, over the budget",
        lambda limit, _: brute_force_counts(
            AbelianGroup((5, 5)), 10, AbelianGroup((5, 5)).zero(), budget=limit
        ),
    ),
    "C(n, k)": (84, "C(9,3) = 84 subsets exceeds the budget", _blocks((3, 3), 3)),
    "C(n, k), stopped early": (
        53130, "C(25,15) >= 53130 subsets exceeds the budget", _blocks((5, 5), 15),
    ),
    "pool": (25, "a pool of 25 elements exceeds the budget", _blocks((5, 5), 25)),
    "half tables": (204, "half tables of 204 words exceed the budget", _blocks((10, 10), 1)),
    "coverage map": (
        36, "coverage map C(9,2) = 36 exceeds budget",
        lambda limit, _: verify_design(DesignInstance(9, 4, [0b1111]), 2, budget=limit),
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_each_charge_refuses_exactly_past_its_work(site, monkeypatch):
    work, what, call = SITES[site]
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    with pytest.raises(BudgetError) as exc:
        call(work - 1, monkeypatch)
    assert str(exc.value) == f"{what} {work - 1}"
    # at the work itself this charge passes; a later one may still refuse
    try:
        call(work, monkeypatch)
    except BudgetError as later:
        assert not str(later).startswith(what)
    except _Reached:
        pass


def test_a_subset_listing_is_charged_once(monkeypatch):
    # subset_sum_blocks charges before it builds the pool, and its listing
    # does not charge again
    checks = []
    check = subset_designs._check_subset_budget

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(subset_designs, "_check_subset_budget", counted)
    group = AbelianGroup((3, 3))
    assert len(subset_sum_blocks(group, 3, group.zero()).blocks) == 12
    assert checks == [(9, 3, None)]


def _refusals(tree: ast.AST) -> list[str]:
    """The message of each raise BudgetError(...) in source order, its
    fields as {}."""
    found = []
    for node in sorted(ast.walk(tree), key=lambda node: getattr(node, "lineno", 0)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        if not (isinstance(node.exc.func, ast.Name) and node.exc.func.id == "BudgetError"):
            continue
        arg = node.exc.args[0]
        parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
        found.append("".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts))
    return found


def test_the_scan_reads_each_budget_error_message():
    source = (
        "def f(n):\n"
        "    if n:\n"
        "        raise BudgetError(f'{n} is {n + 1} too many')\n"
        "    raise BudgetError('none')\n"
        "    raise CertificationError('other')\n"
    )
    assert _refusals(ast.parse(source)) == ["{} is {} too many", "none"]


# the refusals that are no budget: the work cannot run at any budget
NOT_BUDGETS = [
    "code_analysis.py: codeword sweeps are implemented for prime fields only",
    "code_analysis.py: {}^{} messages reach 2^62, past the int64 sweep",
    "param_search.py: no curve with {} points found over F_{} within the scanned families",
    "subset_designs.py: subset keys (n + 1) * |G| = {} reach 2^63",
]


def test_only_budget_reads_the_budget_and_raises_over_it():
    refusals, readers = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "budget.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refusals += [f"{path.name}: {message}" for message in _refusals(tree)]
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "value", None
            )
            if name in ("enumeration_budget", "environ", "getenv", "NMDS_BUDGET"):
                readers.append(f"{path.name}:{node.lineno} {name}")
    assert refusals == NOT_BUDGETS
    assert readers == []
