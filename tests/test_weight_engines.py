"""Oracle tests for the two weight engines.

The one-pass NMDS recurrences are checked against the direct double-sum
formula, and the half-table codeword sweep against a plain sweep of
every message; both slow paths live here only.
"""

import json
import sys
import time
import tracemalloc
from math import comb

import numpy as np
import pytest

from field_reference import mask_ints, matrix_of
from nmdscodes.cli import CATALOG_ROWS, main
from nmdscodes.code_analysis import (
    WeightDistribution,
    min_weight_count_formula,
    nmds_weight_distribution,
    supports_of_weight,
    weight_distribution_bruteforce,
)
from nmdscodes.code_builder import LinearCode, dual_code
from nmdscodes.errors import BudgetError
from nmdscodes.finite_field import FieldSpec
from nmdscodes.param_search import construct

# The (q, p) rows of the benchmark's `weights` workload: p <= 19.
WEIGHT_ROWS = ((7, 3), (13, 3), (31, 5), (43, 7), (157, 13), (307, 17), (343, 19))


def _double_sum_layer(n, m0, q, a_min):
    """Counts at weights m0 + s by the direct O(s) inner sum per weight."""
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[m0] = a_min
    for s in range(1, n - m0 + 1):
        acc = 0
        for j in range(s):
            term = comb(m0 + s, j) * (q ** (s - j) - 1)
            acc += -term if j % 2 else term
        tail = comb(n - m0, s) * a_min
        counts[m0 + s] = comb(n, m0 + s) * acc + (-tail if s % 2 else tail)
    return tuple(counts)


def _message_sweep(code):
    """Every codeword of a prime-field code, one int64 row per message,
    in chunks of 2^18 messages."""
    q, k = code.field.order, code.k_dim
    gen = np.array(list(code.gen_rows_json()), dtype=np.int64)
    for start in range(0, q**k, 1 << 18):
        idx = np.arange(start, min(start + (1 << 18), q**k), dtype=np.int64)
        msgs = (idx[:, None] // q ** np.arange(k, dtype=np.int64)[None, :]) % q
        yield (msgs @ gen) % q


def _swept_distribution(code):
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for words in _message_sweep(code):
        counts += np.bincount(np.count_nonzero(words, axis=1), minlength=code.n + 1)
    return tuple(int(c) for c in counts)


def _swept_supports(code, w):
    sups = set()
    for words in _message_sweep(code):
        rows = words[np.count_nonzero(words, axis=1) == w] != 0
        sups |= {int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
                 for r in rows}
    return sorted(sups)


def _rs_8_2():
    spec = FieldSpec(7)
    rows = (
        tuple([spec(1)] * 7 + [spec(0)]),
        tuple([spec(v) for v in range(7)] + [spec(1)]),
    )
    return LinearCode(field=spec, n=8, k_dim=2, matrix=matrix_of(rows, spec))


def _repeated_columns_300_2():
    # 260 copies of the column (0, 1): every (a, 0) codeword vanishes on
    # 260 coordinates, past what a uint8 count holds
    cols = [(0, 1)] * 260 + [(1, j % 7) for j in range(40)]
    return LinearCode(field=FieldSpec(7), n=300, k_dim=2,
                      matrix=np.array(cols, dtype=np.int64).T.copy())


@pytest.mark.parametrize("q,p", WEIGHT_ROWS)
def test_recurrence_matches_double_sum(q, p):
    n = p * p
    for k in range(p, p * (p - 1) // 2 + 1, p):
        dim = 2 * k
        a_min = min_weight_count_formula(p, q, k)
        primal, dual = nmds_weight_distribution(n, dim, q, a_min)
        assert primal.counts == _double_sum_layer(n, n - dim, q, a_min)
        assert dual.counts == _double_sum_layer(n, dim, q, a_min)


@pytest.mark.parametrize(
    "make",
    [
        lambda: construct(7, 3, 3).code,
        lambda: dual_code(construct(7, 3, 3).code),
        lambda: construct(13, 3, 3).code,
        _rs_8_2,
        _repeated_columns_300_2,
    ],
    ids=["q7", "q7-dual", "q13", "rs-8-2", "300-2-repeated"],
)
def test_half_table_sweep_matches_message_sweep(make):
    code = make()
    assert weight_distribution_bruteforce(code).counts == _swept_distribution(code)


def test_half_table_supports_match_message_sweep():
    code = construct(7, 3, 3).code
    assert mask_ints(supports_of_weight(code, 3).blocks) == _swept_supports(code, 3)
    dual = dual_code(code)
    assert mask_ints(supports_of_weight(dual, 6).blocks) == _swept_supports(dual, 6)
    # q = 13 sweeps 183 high rows at 119 a chunk, so its supports come
    # from both chunks; rs-8-2 has k_dim = 2, one digit in each half
    for code, w in ((construct(13, 3, 3).code, 3), (_rs_8_2(), 7)):
        assert mask_ints(supports_of_weight(code, w).blocks) == _swept_supports(code, w)


def test_sweep_memory_stays_bounded():
    # the q = 13 sweep covers 13^6 codewords of 9 coordinates; a (rows, 9)
    # boolean pattern of its 2^18-codeword chunks took 6.3 MiB at its peak,
    # and one intp copy of a chunk's vanishing counts for bincount 2.0 MiB
    code = construct(13, 3, 3).code
    tracemalloc.start()
    try:
        weight_distribution_bruteforce(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sweep_refusals_hold():
    code = construct(7, 3, 3).code
    with pytest.raises(BudgetError, match="sweep budget"):
        weight_distribution_bruteforce(code, budget=10)
    # 31^20 messages pass 2^62 even under a budget that admits them
    wide = construct(31, 5, 10).code
    with pytest.raises(BudgetError, match="2\\^62"):
        weight_distribution_bruteforce(wide, budget=10**40)


@pytest.mark.parametrize("budget,refusal", [
    ("10", "curve scan"),  # trips before the sweep starts
    ("100000", "117649 messages exceed sweep budget 100000"),
])
def test_weights_brute_over_budget_exits_3(capsys, budget, refusal):
    code = main(["weights", "--q", "7", "--p", "3", "--k", "3",
                 "--method", "brute", "--budget", budget])
    assert code == 3
    assert refusal in capsys.readouterr().err


def test_recurrence_on_every_catalog_row_in_bounded_time():
    start = time.perf_counter()
    for q, p in CATALOG_ROWS:
        n, dim = p * p, 2 * p
        primal, dual = nmds_weight_distribution(n, dim, q, min_weight_count_formula(p, q, p))
        assert primal.total() == q**dim and dual.total() == q ** (n - dim)
        assert min(primal.counts) >= 0 and min(dual.counts) >= 0
    assert time.perf_counter() - start < 60


def test_weights_formula_at_q1723_in_bounded_time(capsys):
    start = time.perf_counter()
    code = main(["weights", "--q", "1723", "--p", "41", "--k", "41",
                 "--method", "formula", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 60
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        record = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert sum(record["primal"]) == 1723**82
    assert sum(record["dual"]) == 1723 ** (1681 - 82)
    assert WeightDistribution(tuple(record["primal"])).min_weight() == 1681 - 82
