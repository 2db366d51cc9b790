"""The process-long memos: a kept curve certificate or subset listing
equals a recomputation, and is read back only under the budget limit
that admitted its work, so a request's exit code and messages never
depend on the requests before it; nothing is kept from a raise, and each
memo holds at most 8 entries (the kept listings at most 32 MiB as well)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import clear_memos

import nmdscodes
from nmdscodes import budget, finite_field, param_search, subset_designs
from nmdscodes.cli import CATALOG_ROWS, main
from nmdscodes.errors import BudgetError, HypothesisError
from nmdscodes.finite_field import FieldSpec
from nmdscodes.param_search import find_curve
from nmdscodes.subset_designs import subset_sum_masks

PRIME_ROWS = [(q, p) for q, p in CATALOG_ROWS if q <= 3541]


def _listings(iso):
    """(k, target) of listings on the points: the minimum-weight supports
    at k = p where they fit the default budget, and the zero-sum pairs
    (single points beyond 1000 of them, whose pair tables do not fit)."""
    group, n = iso.group, len(iso.residues)
    p = group.factors[0]
    small = [(2 if n < 1000 else 1, group.zero())]
    return small + ([(n - 2 * p, group.zero())] if n <= 25 else [])


def _same_certificate(a, b):
    assert a.curve == b.curve
    assert a.group == b.group
    assert a.generators == b.generators
    assert a.points == b.points
    assert np.array_equal(a.residues, b.residues)
    assert not a.residues.flags.writeable and not b.residues.flags.writeable


@pytest.mark.parametrize("q,p", PRIME_ROWS)
def test_a_kept_certificate_and_listing_equal_a_recomputation(q, p):
    kept = find_curve(q, p)
    assert find_curve(q, p) is kept  # read from the memo
    masks = [subset_sum_masks(kept.group, kept.residues, k, x) for k, x in _listings(kept)]
    again = [subset_sum_masks(kept.group, kept.residues, k, x) for k, x in _listings(kept)]
    assert all(a is b for a, b in zip(masks, again))
    clear_memos()
    fresh = find_curve(q, p)
    assert fresh is not kept
    _same_certificate(kept, fresh)
    for (k, x), kept_masks in zip(_listings(fresh), masks):
        recomputed = subset_sum_masks(fresh.group, fresh.residues, k, x)
        assert recomputed is not kept_masks
        assert np.array_equal(recomputed, kept_masks), (q, k)
        assert not kept_masks.flags.writeable


def test_a_listing_is_keyed_on_its_residues_and_target():
    iso = find_curve(7, 3)
    group, res = iso.group, iso.residues
    zero = subset_sum_masks(group, res, 3, group.zero())
    other = subset_sum_masks(group, res, 3, group.element((1, 0)))
    moved = subset_sum_masks(group, np.roll(res, 1, axis=0), 3, group.zero())
    assert len({id(zero), id(other), id(moved)}) == 3
    clear_memos()
    assert np.array_equal(subset_sum_masks(group, res, 3, group.element((1, 0))), other)
    assert np.array_equal(subset_sum_masks(group, np.roll(res, 1, axis=0), 3, group.zero()), moved)
    # the same residues in another integer dtype are the same key
    assert subset_sum_masks(group, res.astype(np.int32), 3, group.zero()) is subset_sum_masks(
        group, res, 3, group.zero())


def _fresh_process(argv, env_budget=None):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    src = str(Path(nmdscodes.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NMDS_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if env_budget is not None:
        env["NMDS_BUDGET"] = env_budget
    result = subprocess.run([sys.executable, "-m", "nmdscodes.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=300)
    return result.returncode, result.stdout, result.stderr


def _in_process(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_scan_refuses_as_a_fresh_process_does(capsys, monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    argv = ["find-curve", "--q", "343", "--p", "19"]
    # a fresh scan charges 343 first and 4116 = 12 * 343 at the winner
    with pytest.raises(BudgetError, match="budget 4115$"):
        param_search._scan(343, 19, 4115)
    assert param_search._scan(343, 19, 4116) is not None
    assert _in_process(capsys, argv)[0] == 0
    assert (343, 19, budget.POINT_CANDIDATES) in param_search._CERTIFIED
    for extra, env in ((["--budget", "1000"], None), ([], "1000"), (["--budget", "4115"], None)):
        if env is not None:
            monkeypatch.setenv("NMDS_BUDGET", env)
        reused = _in_process(capsys, argv + extra)
        monkeypatch.delenv("NMDS_BUDGET", raising=False)
        assert reused == _fresh_process(argv + extra, env)
        assert reused[0] == 3 and reused[2].startswith(
            "error: enumeration budget exceeded: curve scan for q=343 exceeded budget")
    code, out, err = _in_process(capsys, argv + ["--budget", "4116"])
    assert (code, err) == (0, "") and out.startswith("curve: ")


def test_a_reused_design_request_refuses_as_a_fresh_process_does(capsys, monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    argv = ["verify-design", "--q", "31", "--p", "5", "--k", "5"]
    assert _in_process(capsys, argv)[0] == 0
    assert len(subset_designs._KEPT) == 1
    reused = _in_process(capsys, argv + ["--budget", "1000"])
    assert reused == _fresh_process(argv + ["--budget", "1000"])
    assert reused[0] == 3


def test_a_reuse_under_a_bad_budget_is_refused_as_the_scan_is(capsys, monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    argv = ["find-curve", "--q", "7", "--p", "3"]
    assert _in_process(capsys, argv)[0] == 0
    monkeypatch.setenv("NMDS_BUDGET", "lots")
    reused = _in_process(capsys, argv)
    clear_memos()
    assert reused == _in_process(capsys, argv)
    assert reused[0] == 2 and "NMDS_BUDGET='lots' is not an integer" in reused[2]


def test_each_memo_keeps_the_last_8_entries(monkeypatch):
    pairs = [(7, 3), (13, 3), (31, 5), (43, 7), (157, 13), (307, 17), (343, 19), (1723, 41),
             (3541, 59)]
    keys = [(q, p, budget.POINT_CANDIDATES) for q, p in pairs]
    kept = [find_curve(q, p) for q, p in pairs[:8]]
    assert list(param_search._CERTIFIED) == keys[:8]
    assert find_curve(*pairs[0]) is kept[0]  # a reuse makes (7, 3) the newest
    find_curve(*pairs[8])
    assert len(param_search._CERTIFIED) == 8
    assert list(param_search._CERTIFIED) == [*keys[2:8], keys[0], keys[8]]
    # the least recently used is gone, and is certified again on its next request
    assert find_curve(*pairs[1]) is not kept[1]
    assert keys[2] not in param_search._CERTIFIED

    iso = find_curve(7, 3)
    misses = _count_listings(monkeypatch)
    for k in range(9):
        subset_sum_masks(iso.group, iso.residues, k, iso.group.zero())
    kept = (budget.KEPT_RESULTS, len(subset_designs._KEPT), len(misses))
    assert kept == (8, 8, 9)
    subset_sum_masks(iso.group, iso.residues, 0, iso.group.zero())  # evicted, so listed again
    assert len(misses) == 10

    for m in range(2, 11):
        FieldSpec(5, m)
    info = finite_field._lex_min_irreducible.cache_info()
    assert (info.maxsize, info.currsize) == (8, 8)


def _count_listings(monkeypatch) -> list:
    """The listings made from here on (the memo's misses), one entry each."""
    made, real = [], subset_designs._subset_sum_masks

    def counted(*args):
        made.append(args[2:4])
        return real(*args)

    monkeypatch.setattr(subset_designs, "_subset_sum_masks", counted)
    return made


def test_the_kept_listings_stay_within_32_mib(monkeypatch):
    # each zero-sum 7-subset listing of Z_7 x Z_7 is about 13.4 MiB, so a
    # third one pushes the least recently used out; it is listed again,
    # equal to the one it replaces, and a listing past the bound on its
    # own is returned but not kept
    group = subset_designs.AbelianGroup((7, 7))
    res = group.residues()
    targets = [group.zero(), group.element((1, 0)), group.element((0, 1))]
    misses = _count_listings(monkeypatch)
    first = subset_sum_masks(group, res, 7, targets[0])
    assert first.nbytes > 13 * 2**20
    for x in targets[1:]:
        subset_sum_masks(group, res, 7, x)
        kept = sum(m.nbytes for m in subset_designs._KEPT.values())
        assert kept <= budget.KEPT_BYTES == 32 * 2**20
    assert len(subset_designs._KEPT) == 2 and len(misses) == 3
    again = subset_sum_masks(group, res, 7, targets[0])
    assert len(misses) == 4 and again is not first and np.array_equal(again, first)
    assert len(subset_designs._KEPT) == 2
    monkeypatch.setattr(budget, "KEPT_BYTES", first.nbytes - 1)
    subset_designs._KEPT.clear()
    assert np.array_equal(subset_sum_masks(group, res, 7, targets[0]), first)
    assert not subset_designs._KEPT and len(misses) == 5


def _count_scans(monkeypatch) -> list:
    """The curve scans made from here on (the memo's misses), one entry each."""
    made, real = [], param_search._scan

    def counted(q, p, limit):
        made.append(limit)
        return real(q, p, limit)

    monkeypatch.setattr(param_search, "_scan", counted)
    return made


def test_a_certificate_is_read_back_only_under_its_limit(monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    scans = _count_scans(monkeypatch)
    kept = find_curve(343, 19)
    # a limit that admits the scan as well is another key: a fresh scan
    fresh = find_curve(343, 19, budget=10**6)
    assert scans == [budget.POINT_CANDIDATES, 10**6] and fresh is not kept
    _same_certificate(kept, fresh)
    # a flag or an NMDS_BUDGET that resolves to the default's limit is a hit
    assert find_curve(343, 19, budget=budget.POINT_CANDIDATES) is kept
    monkeypatch.setenv("NMDS_BUDGET", str(budget.POINT_CANDIDATES))
    assert find_curve(343, 19) is kept
    assert len(scans) == 2


def test_a_listing_is_read_back_only_under_its_limit(monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    iso = find_curve(31, 5)
    group, res = iso.group, iso.residues
    misses = _count_listings(monkeypatch)
    kept = subset_sum_masks(group, res, 5, group.zero())
    fresh = subset_sum_masks(group, res, 5, group.zero(), budget=10**6)
    assert len(misses) == 2 and fresh is not kept and np.array_equal(fresh, kept)
    assert subset_sum_masks(group, res, 5, group.zero(), budget=budget.SUBSET_CANDIDATES) is kept
    monkeypatch.setenv("NMDS_BUDGET", str(budget.SUBSET_CANDIDATES))
    assert subset_sum_masks(group, res, 5, group.zero()) is kept
    assert len(misses) == 2


def test_nothing_is_kept_from_a_raise(monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    with pytest.raises(BudgetError, match="curve scan for q=343 exceeded budget 4115$"):
        find_curve(343, 19, budget=4115)
    assert not param_search._CERTIFIED
    iso = find_curve(7, 3)
    group, res = iso.group, iso.residues
    with pytest.raises(BudgetError, match="exceeds the budget 1$"):
        subset_sum_masks(group, res, 3, group.zero(), budget=1)
    with pytest.raises(HypothesisError, match="k must be in 0..9, got 10"):
        subset_sum_masks(group, res, 10, group.zero())
    assert not subset_designs._KEPT
