import random
import sys
import time
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

from field_reference import (
    int_brute_force_count_table,
    int_subset_sum_masks,
    int_verify_design,
    mask_ints,
)
from nmdscodes.errors import BudgetError, CertificationError, HypothesisError
from nmdscodes.subset_designs import (
    WORD,
    AbelianGroup,
    DesignInstance,
    _count_table,
    brute_force_count_table,
    brute_force_counts,
    complement_blocks,
    count_subsets,
    count_subsets_nonzero,
    is_design_subset_sums,
    mask_positions,
    sort_blocks,
    subset_sum_blocks,
    subset_sum_masks,
    verify_design,
)


def _residues(group, values):
    """The (n, rank) residue array of a list of group elements."""
    rows = np.array([v.residues for v in values], dtype=np.int64)
    return rows.reshape(len(values), len(group.factors))


def _dp_count(group, k, target, exclude_zero=False):
    """Independent oracle: subset-sum counting by dynamic programming
    over elements, O(order^2 * k) instead of C(order, k)."""
    values = [g for g in group.elements() if not (exclude_zero and not g)]
    zero = group.zero()
    dp = {(0, zero): 1}
    for v in values:
        for (j, s), cnt in sorted(
            dp.items(), key=lambda item: -item[0][0]
        ):
            if j < k:
                key = (j + 1, s + v)
                dp[key] = dp.get(key, 0) + cnt
    return dp.get((k, target), 0)


def _scan_sums(values, k, factors):
    """Reference: the literal combinations scan that the meet-in-the-middle
    engine replaced, yielding (mask, residues of the sum) per k-subset."""
    for combo in combinations(range(len(values)), k):
        sums = [0] * len(factors)
        for i in combo:
            sums = [a + b for a, b in zip(sums, values[i].residues)]
        yield sum(1 << i for i in combo), tuple(a % n for a, n in zip(sums, factors))


def _coverage_by_dict(v, blocks, t):
    """Reference coverage count over position tuples: (coverage of
    {0..t-1}, first t-subset in lexicographic order covered differently
    or None)."""
    cov = Counter(sub for block in blocks for sub in combinations(block, t))
    lam = cov[tuple(range(t))]
    for sub in combinations(range(v), t):
        if cov[sub] != lam:
            return lam, sub
    return lam, None


def _assert_matches_dict_coverage(design, t):
    blocks = [mask_positions(m) for m in design.blocks]
    lam, witness = _coverage_by_dict(design.v, blocks, t)
    report = verify_design(design, t)
    assert (report.lam, report.witness) == (lam, witness), (design, t)
    assert report.is_design == (witness is None)
    assert report.simple == (len(set(blocks)) == len(blocks))
    return report


def _scan_masks(values, k, target):
    factors = target.group.factors
    return [m for m, t in _scan_sums(values, k, factors) if t == target.residues]


# every invariant-factor chain of order <= 12, the trivial group included
_SMALL_CHAINS = (
    (), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
    (9,), (3, 3), (10,), (11,), (12,), (2, 6),
)


def test_group_parse_and_canonical_order():
    g = AbelianGroup.parse("3x3")
    assert g.order == 9 and g.exponent == 3
    assert g.encode() == "3x3"
    elems = list(g.elements())
    assert len(elems) == 9
    assert elems[0] == g.zero()
    g2 = AbelianGroup.parse("9")
    assert g2.order == 9 and g2.exponent == 9


@pytest.mark.parametrize("text", ["", "2", "7", "2x2", "2x4", "3x3", "2x2x4", "2x6x12"])
def test_elements_count_in_the_product_order(text):
    from itertools import product

    g = AbelianGroup.parse(text)
    got = [x.residues for x in g.elements()]
    assert got == list(product(*(range(n) for n in g.factors)))
    assert len(got) == g.order
    assert np.array_equal(np.array(got, dtype=np.int64).reshape(g.order, len(g.factors)), g.residues())


def test_first_elements_of_a_huge_group_allocate_no_range():
    # counting in mixed radix holds one residue tuple at a time;
    # itertools.product made a tuple of each whole range first, 7.6 MiB here
    import tracemalloc
    from itertools import islice

    g = AbelianGroup.parse("100000x100000")
    tracemalloc.start()
    try:
        first = [x.residues for x in islice(g.elements(), 3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(0, 0), (0, 1), (0, 2)]
    assert peak < 64 * 2**10


def test_invalid_invariant_chain_rejected():
    with pytest.raises(ValueError):
        AbelianGroup((3, 5))  # 3 does not divide 5


def test_closed_forms_match_literal_enumeration_small():
    # full sweep over a few mixed groups; the exhaustive order <= 16
    # version lives in the acceptance suite
    for spec in ("4", "2x4", "3x3", "12", "2x6"):
        group = AbelianGroup.parse(spec)
        n = group.order
        for k in range(1, n + 1):
            table = brute_force_count_table(group, k, exclude_zero=False)
            table_star = (
                brute_force_count_table(group, k, exclude_zero=True)
                if k <= n - 1
                else None
            )
            for x in group.elements():
                assert count_subsets(group, k, x) == table.get(x, 0)
                if table_star is not None:
                    assert count_subsets_nonzero(group, k, x) == table_star.get(x, 0)


def test_closed_forms_match_dp_oracle_midsize():
    # orders 25 and 27 are past comfortable literal enumeration
    for spec in ("5x5", "27", "3x9"):
        group = AbelianGroup.parse(spec)
        n = group.order
        rng = random.Random(n)
        elems = list(group.elements())
        for k in (1, 2, 3, n // 2, n - 2, n):
            for x in (group.zero(), elems[1], elems[rng.randrange(n)]):
                assert count_subsets(group, k, x) == _dp_count(group, k, x)
        for k in (1, 2, n - 3):
            for x in (group.zero(), elems[-1]):
                want = _dp_count(group, k, x, exclude_zero=True)
                assert count_subsets_nonzero(group, k, x) == want


def test_counts_sum_to_binomials():
    for spec in ("3x3", "2x8", "5x5"):
        group = AbelianGroup.parse(spec)
        n = group.order
        for k in (1, 2, 3, n - 1):
            total = sum(count_subsets(group, k, x) for x in group.elements())
            assert total == comb(n, k)
            total_star = sum(
                count_subsets_nonzero(group, k, x) for x in group.elements()
            )
            assert total_star == comb(n - 1, k)


def test_frozen_zero_sum_counts():
    g33 = AbelianGroup.parse("3x3")
    g55 = AbelianGroup.parse("5x5")
    assert count_subsets(g33, 6, g33.zero()) == 12
    assert count_subsets(g55, 10, g55.zero()) == 130760
    assert count_subsets(g55, 5, g55.zero()) == 2130
    assert count_subsets(g55, 20, g55.zero()) == 2130


def test_zero_counts_only_at_trivial_cases():
    g = AbelianGroup.parse("3x3")
    zero = g.zero()
    for k in range(1, 10):
        for x in g.elements():
            value = count_subsets(g, k, x)
            if k == 9 and x != zero:
                assert value == 0
            else:
                assert value > 0


def test_nonzero_variant_trivial_cases():
    g = AbelianGroup.parse("3x3")
    zero = g.zero()
    for k in range(1, 9):
        for x in g.elements():
            value = count_subsets_nonzero(g, k, x)
            trivial = (k == 1 and x == zero) or (k == 7 and x == zero) or (
                k == 8 and x != zero
            )
            assert (value == 0) == trivial


def test_subset_sum_masks_count_and_sums():
    g = AbelianGroup.parse("3x3")
    values = list(g.elements())
    masks = subset_sum_masks(g, _residues(g, values), 3, g.zero())
    assert len(masks) == count_subsets(g, 3, g.zero())
    for m in mask_ints(masks[:6]):
        chosen = [values[i] for i in range(9) if (m >> i) & 1]
        total = g.zero()
        for v in chosen:
            total = total + v
        assert total == g.zero() and len(chosen) == 3


def test_subset_sum_masks_match_the_scan():
    assert AbelianGroup(()).residues().shape == (1, 0)
    for spec in ("3x3", "2x4", "9"):
        group = AbelianGroup.parse(spec)
        values = list(group.elements())
        assert np.array_equal(group.residues(), _residues(group, values))
        for k in range(group.order + 1):
            for x in values:
                want = sorted(_scan_masks(values, k, x))
                masks = subset_sum_masks(group, _residues(group, values), k, x)
                assert mask_ints(masks) == want, (spec, k, x.residues)
    group = AbelianGroup.parse("5x5")
    values = list(group.elements())
    for x in (group.zero(), group.element((1, 2))):
        masks = subset_sum_masks(group, _residues(group, values), 5, x)
        assert mask_ints(masks) == sorted(_scan_masks(values, 5, x))
        assert len(masks) == count_subsets(group, 5, x)


def test_brute_force_counts_match_the_scan():
    for chain in _SMALL_CHAINS:
        group = AbelianGroup(chain)
        for exclude_zero in (False, True):
            values = [g for g in group.elements() if not (exclude_zero and not g)]
            n = len(values)
            for k in range(n + 1):
                want = Counter(t for _, t in _scan_sums(values, k, chain))
                table = brute_force_count_table(group, k, exclude_zero=exclude_zero)
                assert {x.residues: c for x, c in table.items()} == want, (chain, k)
                for x in group.elements():
                    got = brute_force_counts(group, k, x, exclude_zero=exclude_zero)
                    assert got == want.get(x.residues, 0), (chain, k, x.residues)
            with pytest.raises(HypothesisError):
                brute_force_counts(group, n + 1, group.zero(), exclude_zero=exclude_zero)


def test_subset_sum_masks_budget_is_charged_the_candidate_count():
    group = AbelianGroup.parse("5x5")
    values = _residues(group, list(group.elements()))
    for k in (10, 15):  # 15 > 25/2 enumerates the complements
        with pytest.raises(BudgetError):
            subset_sum_masks(group, values, k, group.zero(), budget=comb(25, k) - 1)
        masks = subset_sum_masks(group, values, k, group.zero(), budget=comb(25, k))
        assert len(masks) == count_subsets(group, k, group.zero())


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pool was built before the budget check")

    monkeypatch.setattr(AbelianGroup, "elements", refuse)
    monkeypatch.setattr(AbelianGroup, "residues", refuse, raising=False)


def test_pool_is_charged_before_any_element_exists(monkeypatch):
    # the counters' table updates, and the lister's C(n, k), pool size n
    # and half-table words, are all charged before a pool row exists
    _refuse_to_build(monkeypatch)
    big = AbelianGroup((100000, 100000))
    zero = big.zero()
    with pytest.raises(BudgetError, match="= 10000000000\\*2\\*10000000000 = "):
        brute_force_counts(big, 1, zero)
    with pytest.raises(BudgetError, match="= 9999999999\\*2\\*10000000000 = "):
        brute_force_count_table(big, 1, exclude_zero=True)
    with pytest.raises(BudgetError, match="C\\(10000000000,1\\)"):
        subset_sum_blocks(big, 1, zero)
    # C(10^6, 1) and the pool pass the default; the 2 (1 + 500000) rows of
    # block_words(10^6) = 15625 words each (about 125 GB) do not
    mid = AbelianGroup((1000, 1000))
    with pytest.raises(BudgetError, match="half tables of 15625031250 words exceed"):
        subset_sum_blocks(mid, 1, mid.zero())
    small = AbelianGroup((5, 5))
    for k in (0, 25):  # the pool size is what refuses k = 0 and k = n
        with pytest.raises(BudgetError, match="a pool of 25 elements exceeds the budget 24"):
            subset_sum_blocks(small, k, small.zero(), budget=24)
    monkeypatch.undo()
    for k in (0, 25):
        assert len(subset_sum_blocks(small, k, small.zero(), budget=25).blocks) == 1


def test_huge_binomials_are_refused_without_being_computed(monkeypatch):
    # C(10^6, 5 * 10^5) has about 300000 digits and C(40000, 20000) about
    # 12000, past the default int -> str limit of 4300; the budget check
    # steps C(n, j) up to C(n, k) and refuses once it passes the budget,
    # so neither is computed in full nor printed
    _refuse_to_build(monkeypatch)
    digits = sys.get_int_max_str_digits()
    for factors, k in (((1000, 1000), 500000), ((200, 200), 20000)):
        group = AbelianGroup(factors)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"C\\({group.order},{k}\\) >= "):
            subset_sum_blocks(group, k, group.zero())
        assert time.perf_counter() - start < 0.5
    assert sys.get_int_max_str_digits() == digits
    # a refusal on the last step still prints the exact count
    small = AbelianGroup((5, 5))
    with pytest.raises(BudgetError, match="C\\(25,10\\) = 3268760 subsets exceeds"):
        subset_sum_blocks(small, 10, small.zero(), budget=3 * 10**6)


def test_count_table_is_charged_its_cell_updates(monkeypatch):
    # n (k + 1) |G| updates: refused one below, answered at it, and
    # nothing is built before a refusal
    cases = [("3x3", 4, False), ("2x4", 3, True), ("16", 0, False), ("5x5", 25, False)]
    for spec, k, exclude_zero in cases:
        group = AbelianGroup.parse(spec)
        x = group.zero()
        updates = (group.order - exclude_zero) * (k + 1) * group.order
        _refuse_to_build(monkeypatch)
        with pytest.raises(BudgetError, match=f" = {updates} cell updates, over the budget "):
            brute_force_counts(group, k, x, exclude_zero=exclude_zero, budget=updates - 1)
        with pytest.raises(BudgetError, match=f"over the budget {updates - 1}$"):
            brute_force_count_table(group, k, exclude_zero=exclude_zero, budget=updates - 1)
        monkeypatch.undo()
        counter = count_subsets_nonzero if exclude_zero else count_subsets
        got = brute_force_counts(group, k, x, exclude_zero=exclude_zero, budget=updates)
        assert got == counter(group, k, x), spec
        table = brute_force_count_table(group, k, exclude_zero=exclude_zero, budget=updates)
        assert table.get(x, 0) == got, spec


def test_count_table_leaves_int64_exactly_where_a_cell_could_wrap():
    # C(66, 33) < 2^63 <= C(67, 33): the largest cell decides the dtype
    for order, exclude_zero, dtype in ((66, False, np.int64), (67, True, np.int64),
                                       (67, False, object)):
        group = AbelianGroup((order,))
        table = _count_table(group, 33, exclude_zero, None)
        assert table.dtype == dtype, (order, exclude_zero)
        counter = count_subsets_nonzero if exclude_zero else count_subsets
        for x in group.elements():
            assert table[33, x.residues[0]] == counter(group, 33, x), (order, x.residues)
    # counts far past 2^63 stay exact in Python ints
    for spec, k in (("9x9", 40), ("10x10", 50)):
        group = AbelianGroup.parse(spec)
        for x in (group.zero(), group.element((1, 2))):
            assert brute_force_counts(group, k, x) == count_subsets(group, k, x) > 2**63


def test_affine_plane_design_from_zero_sums():
    g = AbelianGroup.parse("3x3")
    design = subset_sum_blocks(g, 3, g.zero())
    assert design.v == 9 and design.block_size == 3
    assert len(design.blocks) == 12
    report = verify_design(design, 2)
    assert report.is_design and report.lam == 1 and report.simple
    report1 = verify_design(design, 1)
    assert report1.is_design and report1.lam == 4


def test_verify_design_rejects_noncovering_family():
    blocks = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    design = DesignInstance.from_positions(9, 3, blocks)
    report = verify_design(design, 2)
    assert not report.is_design
    assert report.witness is not None


def test_popcount_coverage_matches_dict_coverage():
    rng = random.Random(2024)
    designs = 0
    for _ in range(400):
        v = rng.randint(1, 12)
        k = rng.randint(1, v)
        blocks = [tuple(sorted(rng.sample(range(v), k))) for _ in range(rng.randint(1, 20))]
        if rng.random() < 0.3:  # repeated blocks
            blocks += rng.choices(blocks, k=rng.randint(1, len(blocks)))
        rng.shuffle(blocks)
        design = DesignInstance.from_positions(v, k, blocks)
        for t in range(1, min(3, k) + 1):
            designs += _assert_matches_dict_coverage(design, t).is_design
    # complete designs (every k-subset, once or twice) are t-designs for
    # every t checked; the affine plane is a 2-design and not a 3-design
    for v, k, copies in ((7, 3, 1), (8, 4, 2), (12, 3, 1)):
        complete = list(combinations(range(v), k)) * copies
        for t in (1, 2, 3):
            report = _assert_matches_dict_coverage(
                DesignInstance.from_positions(v, k, complete), t)
            assert report.is_design and report.lam == comb(v - t, k - t) * copies
    g = AbelianGroup.parse("3x3")
    plane = subset_sum_blocks(g, 3, g.zero())
    reports = [_assert_matches_dict_coverage(plane, t) for t in (1, 2, 3)]
    assert [r.witness for r in reports] == [None, None, (0, 1, 3)]
    # the plane with the block {6, 7, 8} read as {5, 7, 8}: the first point,
    # pair and triple covered differently are 5, (5, 7) and (0, 1, 3)
    bent = [(5, 7, 8) if b == (6, 7, 8) else b for b in map(mask_positions, plane.blocks)]
    reports = [_assert_matches_dict_coverage(DesignInstance.from_positions(9, 3, bent), t)
               for t in (1, 2, 3)]
    assert [r.witness for r in reports] == [(5,), (5, 7), (0, 1, 3)]
    for k in (3, 5):  # two-word rows
        blocks = [sorted(rng.sample(range(70), k)) for _ in range(40)]
        for t in (1, 2, 3):
            _assert_matches_dict_coverage(DesignInstance.from_positions(70, k, blocks), t)
    assert designs > 0


def test_popcount_coverage_matches_dict_coverage_on_support_families():
    from nmdscodes.code_analysis import min_weight_supports
    from nmdscodes.param_search import construct

    iso = construct(7, 3, 3).iso
    primal = min_weight_supports(iso.group, iso.residues, 3)
    dual = DesignInstance(9, 6, complement_blocks(primal.blocks, 9))
    for family in primal, dual:
        for t in (1, 2, 3):
            _assert_matches_dict_coverage(family, t)


def test_design_instance_checks_its_boundary():
    design = DesignInstance.from_positions(4, 2, [(0, 1), [1, np.int64(3)]])
    assert mask_ints(design.blocks) == [0b0011, 0b1010]
    assert [mask_positions(m) for m in design.blocks] == [(0, 1), (1, 3)]
    assert not design.blocks.flags.writeable
    for bad in [(0, 4)], [(-1, 2)], [(1, 0)], [(1, 1)], [(0, 1, 2)], [(0,)]:
        with pytest.raises(ValueError):  # out of range, unsorted, wrong size
            DesignInstance.from_positions(4, 2, bad)
    assert mask_ints(DesignInstance(v=4, block_size=2, blocks=[0b1001]).blocks) == [0b1001]
    # bit >= v, negative, popcount, tuple, non-int
    for bad in 0b10001, -0b11, 0b111, 0b1, (0, 1), 3.0, 1 << 64:
        with pytest.raises(ValueError):
            DesignInstance(v=4, block_size=2, blocks=[bad])
    # the same checks on word rows, over one and two words
    for v, bad in (4, 0b10001), (4, 0b111), (70, 1 << 70 | 1), (70, 1 << 69 | 1 << 68 | 1):
        rows = np.array([[(bad >> 64 * j) % 2**64 for j in range((v + 63) // 64)]], dtype=WORD)
        with pytest.raises(ValueError):
            DesignInstance(v=v, block_size=2, blocks=rows)
    ok = np.array([[0b1001]], dtype=WORD)
    for bad in ok.astype(np.int64), ok.astype(">u8"), ok[0], np.zeros((1, 2), dtype=WORD):
        with pytest.raises(ValueError):  # dtype, byte order, shape, width
            DesignInstance(v=4, block_size=2, blocks=bad)


def test_design_instance_counts_bits_like_the_row_sum():
    # the column-at-a-time popcount finds the same first bad block as the
    # row sum np.bitwise_count(words).sum(axis=1) it replaced
    rng = np.random.default_rng(19)
    for v in (40, 64, 100, 130, 150):  # W = 1, 1, 2, 3, 3
        width, k = (v + 63) // 64, v // 3
        for trial in range(30):
            bits = np.zeros((200, 64 * width), dtype=bool)
            for row in bits:
                row[rng.choice(v, k, replace=False)] = True
            for _ in range(trial % 3):  # flip 0, 1 or 2 bits, some past v
                bits[rng.integers(200), rng.integers(v if trial % 2 else 64 * width)] ^= True
            words = np.packbits(bits, axis=1, bitorder="little").view(WORD)
            bad = np.bitwise_count(words).sum(axis=1) != k
            if v % 64:
                bad |= words[:, -1] >> (v % 64) != 0
            if not bad.any():
                assert len(DesignInstance(v=v, block_size=k, blocks=words).blocks) == 200
                continue
            j = int(np.flatnonzero(bad)[0])
            want = f"block {j} is not a {k}-point mask below 1 << {v}"
            with pytest.raises(ValueError, match=f"^{want}$"):
                DesignInstance(v=v, block_size=k, blocks=words)


def test_block_rows_are_little_endian_words():
    # point i is bit i % 64 of word i // 64, each word stored low byte first
    design = DesignInstance(v=70, block_size=3, blocks=[1 << 69 | 1 << 64 | 1 << 9])
    assert design.blocks.dtype == np.dtype("<u8") and design.blocks.shape == (1, 2)
    assert design.blocks.tobytes() == bytes([0, 2] + [0] * 6 + [0b100001] + [0] * 7)
    assert design.blocks.tolist() == [[1 << 9, 1 << 5 | 1]]
    assert mask_positions(design.blocks[0]) == (9, 64, 69)
    assert mask_ints(complement_blocks(design.blocks, 70)) == [(1 << 70) - 1 ^ (1 << 69 | 1 << 64 | 1 << 9)]


def test_one_design_criterion_matches_enumeration():
    # odd p-groups where the closed-form route exists; for order 25 the
    # enumeration oracle only covers k values with small C(25, k)
    cases = {
        "9": range(1, 10),
        "3x3": range(1, 10),
        "25": (1, 2, 3, 4, 5, 21, 22, 23, 24, 25),
    }
    for spec, k_values in cases.items():
        group = AbelianGroup.parse(spec)
        for k in k_values:
            for x in list(group.elements())[:4]:
                via_formula = is_design_subset_sums(group, k, x, 1)
                via_enum = verify_design(subset_sum_blocks(group, k, x), 1).is_design
                assert via_formula == via_enum, (spec, k, x.residues)
    # no closed form for an even group: the blocks are enumerated
    group = AbelianGroup.parse("2x4")
    for k in range(2, 8):
        want = verify_design(subset_sum_blocks(group, k, group.zero()), 2).is_design
        assert is_design_subset_sums(group, k, group.zero(), 2) == want, k


def test_one_design_empty_family_is_not_design():
    group = AbelianGroup.parse("9")
    x = group.element((1,))
    assert count_subsets(group, 9, x) == 0
    assert not is_design_subset_sums(group, 9, x, 1)


def test_two_design_criterion_elementary_group():
    group = AbelianGroup.parse("3x3")
    zero = group.zero()
    one = group.element((0, 1))
    for k in range(1, 9):
        expected = k % 3 == 0
        assert is_design_subset_sums(group, k, zero, 2) == expected
    # nonzero x never yields a 2-design here except trivially empty sets
    assert not is_design_subset_sums(group, 3, one, 2)


def _assert_matches_int_engine(group, k, targets, exclude_zero=False):
    # the counters read the subset-sum table and the lister runs the join,
    # so each is held to the int engine and to the other
    values = [g for g in group.elements() if not (exclude_zero and not g)]
    table = brute_force_count_table(group, k, exclude_zero=exclude_zero)
    want = int_brute_force_count_table(group, k, exclude_zero=exclude_zero)
    assert table == want, (group, k)
    for x in targets:
        masks = subset_sum_masks(group, _residues(group, values), k, x)
        assert mask_ints(masks) == int_subset_sum_masks(values, k, x), (group, k, x)
        got = brute_force_counts(group, k, x, exclude_zero=exclude_zero)
        assert got == len(masks) == want.get(x, 0), (group, k, x)


def test_word_engine_matches_the_int_engine():
    for spec, exclude_zero, ks in (
        ("3x3", False, range(10)),
        ("5x5", False, (0, 1, 2, 3, 5, 10, 15, 22, 24, 25)),
        ("4x4", True, range(16)),
        ("16", False, range(17)),
        ("2x2x4", False, range(17)),
    ):
        group = AbelianGroup.parse(spec)
        elements = list(group.elements())
        for k in ks:
            targets = elements if group.order <= 9 else elements[:: group.order // 4]
            _assert_matches_int_engine(group, k, targets, exclude_zero)
    # the subset-count requests of the design workload
    for spec, k, x, exclude_zero in (
        ("5x5", 10, (0, 0), False), ("5x5", 10, (1, 2), False), ("4x4", 8, (0, 0), True),
        ("16", 8, (1,), False), ("2x2x4", 8, (1, 0, 3), False),
    ):
        group = AbelianGroup.parse(spec)
        _assert_matches_int_engine(group, k, [group.element(x)], exclude_zero)


def _assert_matches_int_coverage(design, ts):
    masks = mask_ints(design.blocks)
    for t in ts:
        report = verify_design(design, t)
        want = int_verify_design(design.v, design.block_size, masks, t)
        assert (report.lam, report.witness, report.simple, report.block_count) == want, t
        assert report.is_design == (want[0] is not None and want[1] is None)


def test_support_families_match_the_int_engine():
    from nmdscodes.code_analysis import min_weight_supports
    from nmdscodes.param_search import construct

    for q, p, k in ((7, 3, 3), (13, 3, 3), (31, 5, 5)):
        c = construct(q, p, k)
        n, zero = p * p, c.iso.group.zero()
        primal = min_weight_supports(c.iso.group, c.iso.residues, k)
        dual = DesignInstance(n, 2 * k, complement_blocks(primal.blocks, n))
        elements = [c.iso.group.element(r) for r in c.iso.residues.tolist()]
        full = (1 << n) - 1
        # the dual supports are the zero-sum 2k-subsets, listed here as the
        # complements of the zero-sum (n - 2k)-subsets when those are fewer
        if 2 * k <= n - 2 * k:
            supports = int_subset_sum_masks(elements, 2 * k, zero)
        else:
            supports = [full ^ m for m in int_subset_sum_masks(elements, n - 2 * k, zero)]
        assert mask_ints(primal.blocks) == sorted(full ^ m for m in supports)
        assert mask_ints(dual.blocks) == [full ^ m for m in mask_ints(primal.blocks)]
        for family in primal, dual:
            _assert_matches_int_coverage(family, (1, 2, 3))


def test_listing_past_half_the_pool_matches_the_int_engine():
    # for k > n/2 the listing takes the complements of the (n - k)-subsets
    # summing to the pool's total minus x; the first 7 elements of Z_8 sum
    # to 5, so the total is not zero
    group = AbelianGroup((8,))
    values = list(group.elements())[:7]
    for k in range(8):
        for x in group.elements():
            masks = subset_sum_masks(group, _residues(group, values), k, x)
            assert mask_ints(masks) == int_subset_sum_masks(values, k, x), (k, x.residues)
            assert not masks.flags.writeable


def test_multi_word_blocks_match_the_int_engine():
    for spec, k in (("9x9", 3), ("8x8", 2)):  # v = 81 over two words, v = 64 in one
        group = AbelianGroup.parse(spec)
        v, full = group.order, (1 << group.order) - 1
        elements = list(group.elements())
        for x in elements[:3] + elements[-2:]:
            masks = subset_sum_masks(group, _residues(group, elements), k, x)
            assert mask_ints(masks) == int_subset_sum_masks(elements, k, x)
            assert masks.shape[1] == (v + 63) // 64
            # complements: k -> v - k, the order reversed
            comp = complement_blocks(masks, v)
            assert mask_ints(comp) == [full ^ m for m in mask_ints(masks)]
            flipped = subset_sum_masks(group, _residues(group, elements), v - k, -x)
            assert mask_ints(flipped) == mask_ints(comp[::-1])
        design = subset_sum_blocks(group, k, group.zero())
        _assert_matches_int_coverage(design, (1, 2))
        _assert_matches_int_coverage(
            DesignInstance(v, v - k, complement_blocks(design.blocks, v)), (1, 2))


def test_blocked_join_and_checks_match_the_int_engine_at_any_block_size(monkeypatch):
    # the join, _steps and _coverage work a block of rows at a time
    # (linalg.rows_per_block).  Blocks of 1, 3 and 7 cells cut the output
    # rows of one right row across blocks, on the complement path (k >
    # n/2) too, and over two-word rows (v = 81)
    from nmdscodes import linalg

    for cells in (1, 3, 7):
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", cells)
        for spec, ks in (("3x3", (3, 6)), ("9", (4,)), ("2x4", (2, 5)), ("9x9", (2,))):
            group = AbelianGroup.parse(spec)
            elements = list(group.elements())
            for k in ks:
                for x in elements[:2]:
                    design = subset_sum_blocks(group, k, x)
                    assert mask_ints(design.blocks) == int_subset_sum_masks(elements, k, x)
                    _assert_matches_int_coverage(design, (1, 2))
                    _assert_complement_reads_as_the_copy(design, (1, 2))


def test_hand_built_non_design_matches_the_int_coverage():
    # unsorted, with a repeated block, over two words
    blocks = [(0, 5, 70), (1, 2, 3), (64, 65, 80), (0, 5, 70), (3, 40, 63), (2, 64, 79)]
    design = DesignInstance.from_positions(81, 3, blocks)
    _assert_matches_int_coverage(design, (1, 2, 3))
    report = verify_design(design, 1)
    assert not report.is_design and not report.simple and report.block_count == 6
    # the repeat is found whichever order the rows come in
    rows = sorted(mask_ints(design.blocks))
    for order in (rows, rows[::-1]):
        report = verify_design(DesignInstance(81, 3, order), 1)
        assert not report.simple and report.block_count == 6


def test_subset_sum_masks_ascend_unsorted_and_match_the_int_engine():
    # the join emits ascending rows with no sort: one word (v = 25) and
    # two or three words (v = 70, 130), the complement path (k > n/2),
    # k = 0 and k = n, over pools with repeated elements, so that many
    # half subsets share a key.  (k + 1) |G| stays below 2^16 on the first
    # three groups, so their keys sort as uint8 or uint16.  It passes 2^16
    # on 300x300, and 2^53 (past which a float64 cast would merge keys) on
    # the last group.  Their pools are ten draws from the nine elements
    # with residues in {-1, 0, 1} and the negatives of those draws, so
    # that small subsets and their complements hit the targets
    rng = random.Random(17)
    for spec, n, ks in (
        ("5x5", 25, (0, 1, 3, 10, 15, 22, 25)),
        ("7", 70, (0, 1, 3, 67, 69, 70)),
        ("2x4", 130, (0, 2, 128, 130)),
        ("300x300", 20, (2, 3, 17)),
        ("100000000x100000000", 20, (2, 17)),
    ):
        group = AbelianGroup.parse(spec)
        if group.order < 2**16:
            elements = list(group.elements())
            values = [rng.choice(elements) for _ in range(n)]
        else:
            near = [group.element((a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)]
            values = [rng.choice(near) for _ in range(n // 2)]
            values += [-v for v in values]
        for k in ks:
            listed = 0
            for x in (group.element(np.unravel_index(i, group.factors)) for i in range(3)):
                masks = subset_sum_masks(group, _residues(group, values), k, x)
                ints = mask_ints(masks)
                assert ints == int_subset_sum_masks(values, k, x), (spec, k, x)
                assert all(a < b for a, b in zip(ints, ints[1:]))
                assert masks.shape[1] == (n + 63) // 64 and not masks.flags.writeable
                assert masks.flags.c_contiguous
                listed += len(ints)
            assert listed or group.order < 2**16, (spec, k)


def _argsort_rows(words):
    """Reference: the rows sorted by each word from the least significant
    up, every pass stable."""
    order = np.arange(len(words))
    for j in range(words.shape[1]):
        order = order[np.argsort(words[order, j], kind="stable")]
    return words[order]


def test_sort_blocks_matches_the_argsort_reference():
    # the monotone paths (kept, reversed) against the full sort: values
    # with ties in the high words and the top bit set, W = 1, 2, 3
    rng = np.random.default_rng(17)
    values = np.array([0, 1, 2**63, 2**64 - 1], dtype=WORD)
    for width in (1, 2, 3):
        for b in (0, 1, 2, 3, 40):
            rows = rng.choice(values, size=(b, width))
            up = _argsort_rows(rows)
            cases = (up, up[::-1], rows, np.repeat(up, 2, axis=0),
                     np.repeat(up[::-1], 3, axis=0), np.repeat(up[:1], b, axis=0))
            for case in cases:
                kept = case.copy()
                got = sort_blocks(case)
                assert np.array_equal(got, _argsort_rows(case)), (width, b)
                assert np.array_equal(case, kept)
                assert got.dtype == WORD and got.flags.c_contiguous
                assert not got.flags.writeable and not np.shares_memory(got, case)
                frozen = np.ascontiguousarray(case)
                frozen.flags.writeable = False
                assert np.array_equal(sort_blocks(frozen), got)


def _shift_and_mask_columns(design):
    """Reference: the per-point packing that _columns replaced.  The block
    rows' bytes are transposed into a table of 8 W rows padded to whole
    words, and point i is bit i % 8 of row i // 8, shifted down, masked
    to 0 or 1, packed, and the packed points stacked into one array."""
    words = design.blocks
    by_byte = np.zeros((8 * words.shape[1], len(words) + -len(words) % 64), dtype=np.uint8)
    by_byte[:, : len(words)] = words.view(np.uint8).T
    cols = [np.packbits(by_byte[i >> 3] >> (i & 7) & 1) for i in range(design.v)]
    return np.array(cols).view(np.uint64)


def test_columns_match_the_unpackbits_transpose():
    # cols against the per-point shift-and-mask packing and against the
    # point-by-block bit matrix of one unpackbits along the slow axis:
    # every point of a byte column (v = 7, 8, 9), one and two words with v
    # a multiple of 64 or one past it, and b a multiple of 64 or not; half
    # the points in each block, so that bytes hold many set bits
    from nmdscodes.subset_designs import _columns

    rng = np.random.default_rng(34)
    for v in (1, 7, 8, 9, 25, 63, 64, 65, 130):
        k = (v + 1) // 2
        for b in (1, 63, 64, 65, 1000):
            blocks = [np.sort(rng.choice(v, size=k, replace=False)).tolist() for _ in range(b)]
            design = DesignInstance.from_positions(v, k, blocks)
            got = _columns(design)
            want = _shift_and_mask_columns(design)
            assert got.dtype == want.dtype and got.shape == (v, (b + 63) // 64), (v, b)
            assert np.array_equal(got, want), (v, b)
            by_byte = np.zeros((8 * design.blocks.shape[1], b + -b % 64), dtype=np.uint8)
            by_byte[:, :b] = design.blocks.view(np.uint8).T
            bits = np.unpackbits(by_byte, axis=0, count=v, bitorder="little")
            assert np.array_equal(got, np.packbits(bits, axis=1).view(np.uint64)), (v, b)


def test_columns_match_the_shift_and_mask_packing_on_the_q31_families():
    from nmdscodes.code_analysis import min_weight_supports
    from nmdscodes.param_search import construct
    from nmdscodes.subset_designs import _columns

    iso = construct(31, 5, 5).iso
    primal = min_weight_supports(iso.group, iso.residues, 5)
    dual = DesignInstance(25, 10, complement_blocks(primal.blocks, 25))
    for family in primal, dual:
        assert np.array_equal(_columns(family), _shift_and_mask_columns(family))


def test_design_instance_refuses_the_first_bad_row_by_its_index():
    # a row of k - 1 points and a row of k points one past v, at index 3
    # of 6, alone and followed by the other kind, on one-word (v = 25, 40)
    # and two-word (v = 70, 100) rows.  Full rows of 64 and 128 points (no
    # bit can lie past v) are accepted
    for v, k in ((25, 4), (40, 7), (70, 4), (100, 9)):
        good = (1 << k) - 1 << v - k
        small, past = good ^ 1 << v - 1, good ^ 1 << v - k ^ 1 << v
        for bad, later in ((small, good), (past, good), (small, past), (past, small)):
            masks = [good] * 3 + [bad] + [later] * 2
            rows = np.array([[(m >> 64 * j) % 2**64 for j in range((v + 63) // 64)]
                             for m in masks], dtype=WORD)
            want = f"block 3 is not a {k}-point mask below 1 << {v}"
            with pytest.raises(ValueError, match=f"^{want}$"):
                DesignInstance(v=v, block_size=k, blocks=rows)
            if later == good:
                rows[3] = rows[0]
                assert len(DesignInstance(v=v, block_size=k, blocks=rows).blocks) == 6
    for v in (64, 128):
        rows = np.full((2, v // 64), 2**64 - 1, dtype=WORD)
        assert DesignInstance(v=v, block_size=v, blocks=rows).blocks.shape == (2, v // 64)
        with pytest.raises(ValueError, match="^block 0 is not a"):
            DesignInstance(v=v, block_size=v - 1, blocks=rows)


def test_listing_past_half_is_the_reversed_complement_of_the_listing_below():
    # k > n/2 lists the complements of the (n - k)-subsets summing to the
    # total minus x, joined in reverse: the rows still ascend, read-only,
    # on groups of odd (7, 9, 25) and even (8, 16) order
    for spec in ("7", "3x3", "5x5", "2x4", "4x4"):
        group = AbelianGroup.parse(spec)
        n, res = group.order, group.residues()
        total = group.element(res.sum(axis=0))
        elements = list(group.elements())
        for k in range(n // 2 + 1, n + 1):
            if comb(n, k) > 10**5:
                continue
            for x in elements[:: max(1, n // 4)]:
                masks = subset_sum_masks(group, res, k, x)
                below = subset_sum_masks(group, res, n - k, total - x)
                assert np.array_equal(masks, complement_blocks(below, n)[::-1]), (spec, k)
                ints = mask_ints(masks)
                assert all(a < b for a, b in zip(ints, ints[1:]))
                assert not masks.flags.writeable and masks.flags.c_contiguous


def test_measured_certificate_sorts_no_block_list(monkeypatch):
    # the q = 31 construction's b = 130760 primal and dual rows reach
    # verify_design already in order, so no sort runs on b elements
    from nmdscodes.code_analysis import certify_two_design
    from nmdscodes.param_search import construct

    c = construct(31, 5, 5)
    lengths = []
    for name in ("argsort", "sort", "lexsort"):
        def counted(a, *args, _real=getattr(np, name), **kwargs):
            lengths.append(len(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    cert = certify_two_design(c.iso.group, c.iso.residues, 5)
    assert cert.mode == "measured" and cert.block_count == 130760
    assert cert.primal_report.simple and cert.dual_report.simple
    assert lengths and max(lengths) < 130760, max(lengths)


def test_q31_listing_peaks_below_two_outputs():
    # the q = 31 listing is the 130760 zero-sum 10-subsets of 25 points,
    # complemented: 1.0 MiB of rows.  It peaked at 4.66 times that with an
    # int64 index per side and reversed-view gathers, at 3.16 times with
    # the right rows repeated and one narrow index into the left rows
    # (0.5 MiB, with its arange and the 1.0 MiB gather of the left rows),
    # and reads 1.45 joined a block of rows at a time
    import tracemalloc

    from nmdscodes.param_search import construct

    c = construct(31, 5, 5)
    group, residues = c.iso.group, c.iso.residues
    tracemalloc.start()
    try:
        masks = subset_sum_masks(group, residues, 15, group.zero())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (130760, 1)
    assert peak < 2.0 * masks.nbytes, peak / masks.nbytes


def test_z7_listing_peaks_below_three_outputs():
    # the zero-sum 7-subsets of Z_7 x Z_7 are 1753080 rows, 13.4 MiB,
    # joined from 726206 + 536155 half subsets.  With int64 sizes and sums
    # beside each half row (32 B a row, 38.5 MiB) the listing peaked at
    # 7.2 times its rows; narrow sizes and sums, dropped once keyed, and a
    # join a block at a time read 2.35
    import tracemalloc

    group = AbelianGroup((7, 7))
    residues = group.residues()
    tracemalloc.start()
    try:
        masks = subset_sum_masks(group, residues, 7, group.zero())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (1753080, 1)
    assert peak < 3.0 * masks.nbytes, peak / masks.nbytes


def test_q31_certificate_peaks_below_two_block_arrays():
    # the measured certificate holds the 1.0 MiB primal rows.  It peaked at
    # 3.78 times the rows while the dual's validation shifted a full copy
    # of its last words, and at 3.2 times with a complemented copy of the
    # rows for the dual; the dual is now read from complemented columns
    import tracemalloc

    from nmdscodes.code_analysis import certify_two_design
    from nmdscodes.param_search import construct

    c = construct(31, 5, 5)
    tracemalloc.start()
    try:
        cert = certify_two_design(c.iso.group, c.iso.residues, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.mode == "measured" and cert.block_count == 130760
    assert peak < 2.0 * 130760 * 8, peak / (130760 * 8)


def _assert_complement_reads_as_the_copy(design, ts):
    """verify_design with complement against verify_design on the
    complemented copy of the rows, field by field."""
    v = design.v
    copy = DesignInstance(v, v - design.block_size, complement_blocks(design.blocks, v))
    for t in ts:
        got, want = verify_design(design, t, complement=True), verify_design(copy, t)
        # every field: lam, witness, simple, b, block size, v, t, is_design
        assert got == want, (v, len(design.blocks), t, got, want)


def test_complemented_columns_read_as_the_complemented_rows():
    # the q = 7, 13 and 31 support families (b = 12, 12 and 130760); hand-
    # made families over one, two and three words (v = 25, 70, 130) with b
    # a multiple of 64, of 8 only, and of neither, so that the last packed
    # byte holds 1..7 live bits; the complete 2-subset design of 70 points;
    # a non-design with a repeated row; and an empty family
    from nmdscodes.code_analysis import min_weight_supports
    from nmdscodes.param_search import construct

    for q, p, k in ((7, 3, 3), (13, 3, 3), (31, 5, 5)):
        iso = construct(q, p, k).iso
        _assert_complement_reads_as_the_copy(min_weight_supports(iso.group, iso.residues, k),
                                             (1, 2))
    rng = np.random.default_rng(37)
    for v, k in ((25, 3), (70, 3), (70, 30), (130, 5)):
        for b in (1, 5, 8, 13, 64, 70, 100, 129):
            blocks = [np.sort(rng.choice(v, size=k, replace=False)).tolist() for _ in range(b)]
            _assert_complement_reads_as_the_copy(DesignInstance.from_positions(v, k, blocks),
                                                 (1, 2))
    complete = DesignInstance.from_positions(70, 2, combinations(range(70), 2))
    assert len(complete.blocks) % 8
    _assert_complement_reads_as_the_copy(complete, (1, 2))
    assert verify_design(complete, 2, complement=True).lam == comb(68, 2)
    bent = [(0, 5, 70), (1, 2, 3), (64, 65, 80), (0, 5, 70), (3, 40, 63), (2, 64, 79)]
    non_design = DesignInstance.from_positions(81, 3, bent)
    _assert_complement_reads_as_the_copy(non_design, (1, 2, 3))
    report = verify_design(non_design, 2, complement=True)
    assert not report.is_design and not report.simple and report.witness is not None
    for v in (25, 70, 130):
        empty = DesignInstance(v, 3, np.zeros((0, (v + 63) // 64), dtype=WORD))
        _assert_complement_reads_as_the_copy(empty, (1, 2))
        report = verify_design(empty, 2, complement=True)
        assert (report.block_size, report.lam, report.block_count) == (v - 3, None, 0)
