"""Shared pytest plumbing for the acceptance gate.

Tests named test_criterion_<NN>_* get one PASS/FAIL line each in the
terminal summary; a passing test can attach a richer detail line through
the criterion_record fixture.  Every test starts with the package's
process-long memos empty, so no test reads a result that an earlier one
computed, with or without a fault it injected.
"""

import re

import pytest

from nmdscodes import finite_field, param_search, subset_designs

_lines: dict[int, str] = {}
_CRITERION = re.compile(r"test_criterion_(\d+)")


def clear_memos() -> None:
    """Empty the kept curve certificates, default moduli and listings."""
    param_search._CERTIFIED.clear()
    finite_field._lex_min_irreducible.cache_clear()
    subset_designs._kept_listing.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_memos()


@pytest.fixture
def criterion_record():
    def _record(num: int, detail: str) -> None:
        _lines[num] = f"criterion {num}: PASS ({detail})"
        print(_lines[num])

    return _record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    match = _CRITERION.match(item.name)
    if not match:
        return
    num = int(match.group(1))
    if report.failed:
        _lines[num] = f"criterion {num}: FAIL ({item.name})"
    elif report.passed and num not in _lines:
        _lines[num] = f"criterion {num}: PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(_lines):
            terminalreporter.write_line(_lines[num])
