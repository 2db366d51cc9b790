"""Work budgets for exact enumerations.

Every potentially explosive enumeration charges its work to charge()
first, the one entry point, which raises BudgetError instead of
degrading to sampling.  The budget in force is the caller's explicit
value (the CLI's --budget), else the NMDS_BUDGET environment variable,
else the enumeration's default below, and every refusal message ends
with that limit; check_budget validates it once per request.

A result that costs budgeted work and depends on its inputs alone is
kept for the process by kept(), the one memo rule: it is keyed on its
inputs and the limit in force, so it is read back only under the limit
that admitted its work, and a read charges nothing.
"""

import os
from typing import Any, Callable

from .errors import BudgetError, HypothesisError

SUBSET_CANDIDATES = 10**8  # k-subset enumerations
COVERAGE_CELLS = 10**8  # t-subset coverage maps in verify_design
COLUMN_CELLS = 10**6  # submatrix cells eliminated by column-subset rank checks
SWEEP_MESSAGES = 10**8  # brute-force codeword sweeps
AUTO_SWEEP_MESSAGES = 10**7  # threshold for choosing brute force automatically
POINT_CANDIDATES = 2**24  # affine x-candidates in point enumeration
PRIME_BOUND = 10**6  # sieve length of the parameter search
KEPT_RESULTS, KEPT_BYTES = 8, 32 << 20  # per memo of kept(), bytes if sized


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


def check_budget(flag: int | None) -> None:
    """Raise HypothesisError unless the budget in force, from flag or
    NMDS_BUDGET, is a nonnegative integer."""
    enumeration_budget(flag, 0)


def kept(memo: dict, key: tuple, compute: Callable[[int], Any], flag: int | None, default: int,
         size: Callable[[Any], int] | None = None) -> Any:
    """The result kept in memo under key and the limit in force, else
    compute(limit), which charges its work against that limit.  The new
    result is kept unless size(result) alone passes KEPT_BYTES, and the
    least recently used go until memo holds KEPT_RESULTS (with size, and
    KEPT_BYTES in all); a raise keeps nothing."""
    limit = enumeration_budget(flag, default)
    key = (*key, limit)
    if key in memo:
        memo[key] = result = memo.pop(key)
        return result
    result = compute(limit)
    if size is None or size(result) <= KEPT_BYTES:
        memo[key] = result
        while len(memo) > KEPT_RESULTS or size and sum(map(size, memo.values())) > KEPT_BYTES:
            del memo[next(iter(memo))]
    return result
