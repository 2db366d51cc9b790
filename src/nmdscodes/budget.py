"""Work budgets for exact enumerations.

Every potentially explosive enumeration charges its work to charge()
first, the one entry point, which raises BudgetError instead of
degrading to sampling.  The budget in force is the caller's explicit
value (the CLI's --budget), else the NMDS_BUDGET environment variable,
else the enumeration's default below, and every refusal message ends
with that limit.
"""

import os

from .errors import BudgetError, HypothesisError

SUBSET_CANDIDATES = 10**8  # k-subset enumerations
COVERAGE_CELLS = 10**8  # t-subset coverage maps in verify_design
COLUMN_CELLS = 10**6  # submatrix cells eliminated by column-subset rank checks
SWEEP_MESSAGES = 10**8  # brute-force codeword sweeps
AUTO_SWEEP_MESSAGES = 10**7  # threshold for choosing brute force automatically
POINT_CANDIDATES = 2**24  # affine x-candidates in point enumeration
PRIME_BOUND = 10**6  # sieve length of the parameter search


def enumeration_budget(flag: int | None, default: int) -> int:
    """The budget in force: flag if given, then NMDS_BUDGET, then default.
    A negative budget is a HypothesisError; zero is a budget."""
    env = os.environ.get("NMDS_BUDGET")
    try:
        budget = flag if flag is not None else default if env is None else int(env)
    except ValueError:
        raise HypothesisError(f"NMDS_BUDGET={env!r} is not an integer") from None
    if budget < 0:
        raise HypothesisError(f"budget {budget} is negative")
    return budget


def charge(work: int, flag: int | None, default: int, what: str) -> int:
    """Charge work against the budget in force and return that limit;
    past it, raise BudgetError(f"{what} {limit}")."""
    limit = enumeration_budget(flag, default)
    if work > limit:
        raise BudgetError(f"{what} {limit}")
    return limit
