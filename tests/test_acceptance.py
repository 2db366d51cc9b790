"""Acceptance gate: ten end-to-end criteria, each with an exactness
requirement and a wall-clock budget.

Every numeric comparison here is exact (integer equality); the time
budgets are asserted, and one PASS/FAIL line per criterion lands in the
terminal summary via conftest.
"""

import time
from math import comb

from field_reference import mask_ints
from nmdscodes.code_analysis import (
    certify_two_design,
    disjoint_support_pairing,
    lambda_closed_form,
    lambda_dual_closed_form,
    macwilliams_transform,
    min_weight_count_formula,
    min_weight_supports,
    nmds_weight_distribution,
    pin_min_distance,
    supports_of_weight,
    weight_distribution_bruteforce,
    zero_sum_witness_positions,
    am_hypothesis_check,
)
from nmdscodes.code_builder import (
    classify_mds_nmds,
    dual_code,
    nmds_structural_check,
)
from nmdscodes.param_search import (
    ParameterTriple,
    construct,
    search_parameters,
    triple_conditions,
)
from nmdscodes.subset_designs import (
    AbelianGroup,
    DesignInstance,
    brute_force_count_table,
    count_subsets_full,
    count_subsets_nonzero,
    subset_sum_masks,
    verify_design,
)

EXPECTED_PRIMAL = (1, 0, 0, 72, 324, 3348, 10656, 30024, 43794, 29430)
EXPECTED_DUAL = (1, 0, 0, 0, 0, 0, 72, 0, 216, 54)

# Every admissible (q, p, t) with positive trace and p <= 2000, frozen.
EXPECTED_TRIPLES = (
    (7, 3, 1),
    (43, 7, 5),
    (157, 13, 11),
    (343, 19, 17),
    (4423, 67, 65),
    (6163, 79, 77),
    (19183, 139, 137),
    (22651, 151, 149),
    (26407, 163, 161),
    (37057, 193, 191),
    (113233, 337, 335),
    (121453, 349, 347),
    (143263, 379, 377),
    (208393, 457, 455),
    (292141, 541, 539),
    (375157, 613, 611),
    (412807, 643, 641),
    (527803, 727, 725),
    (590593, 769, 767),
    (843643, 919, 917),
    (981091, 991, 989),
    (1041421, 1021, 1019),
    (1193557, 1093, 1091),
    (1246573, 1117, 1115),
    (1441201, 1201, 1199),
    (1514131, 1231, 1229),
    (1905781, 1381, 1379),
    (2023507, 1423, 1421),
    (2397853, 1549, 1547),
    (2453923, 1567, 1565),
    (2548813, 1597, 1595),
    (2626021, 1621, 1619),
    (2864557, 1693, 1691),
    (3050263, 1747, 1745),
    (3198733, 1789, 1787),
    (3241801, 1801, 1799),
    (3734557, 1933, 1931),
    (3946183, 1987, 1985),
)


def test_criterion_01_example_reproduction(criterion_record):
    start = time.perf_counter()
    c = construct(7, 3, 3)
    code = c.code
    assert (code.n, code.k_dim) == (9, 6)
    assert pin_min_distance(code, zero_sum_witness_positions(c.iso.group, c.iso.residues, 3)) == 3
    dist = weight_distribution_bruteforce(code)
    assert dist.counts == EXPECTED_PRIMAL
    dual_dist = weight_distribution_bruteforce(dual_code(code))
    assert dual_dist.counts == EXPECTED_DUAL
    assert macwilliams_transform(dist, 7, 6).counts == EXPECTED_DUAL
    elapsed = time.perf_counter() - start
    criterion_record(1, f"[9,6,3] with both enumerators exact; {elapsed:.2f}s < 5s")
    assert elapsed < 5


def test_criterion_02_design_certification(criterion_record):
    start = time.perf_counter()
    c = construct(7, 3, 3)
    family = min_weight_supports(c.iso.group, c.iso.residues, 3)
    assert len(family.blocks) == 12
    report = verify_design(family, 2)
    assert report.is_design and report.simple
    assert (report.v, family.block_size, report.lam) == (9, 3, 1)  # Steiner S(2,3,9)
    dual_family = supports_of_weight(dual_code(c.code), 6)
    assert len(dual_family.blocks) == 12
    dual_report = verify_design(dual_family, 2)
    assert dual_report.is_design
    assert (dual_report.v, dual_family.block_size, dual_report.lam) == (9, 6, 5)
    elapsed = time.perf_counter() - start
    criterion_record(2, f"2-(9,3,1) simple and 2-(9,6,5); {elapsed:.2f}s < 1s")
    assert elapsed < 1


def test_criterion_03_parameter_table(criterion_record):
    start = time.perf_counter()
    rows = search_parameters(2000, require_positive_t=True)
    expected = [ParameterTriple(q, p, t) for q, p, t in EXPECTED_TRIPLES]
    assert len(rows) == 38
    assert rows == expected
    elapsed = time.perf_counter() - start
    criterion_record(3, f"all 38 frozen triples row-for-row; {elapsed:.2f}s < 60s")
    assert elapsed < 60


def test_criterion_04_concrete_catalog_rows(criterion_record):
    start = time.perf_counter()
    rows = (
        (7, 3, 3, 2, 1),
        (13, 3, 3, 3, 2),
        (31, 5, 5, 11, 0),
        (43, 7, 7, None, None),
    )
    for q, p, k, b, x_q in rows:
        c = construct(q, p, k)
        assert c.iso.group.encode() == f"{p}x{p}"
        assert c.iso.group.factors == (p, p)
        if b is not None:
            assert c.curve.a4.coeffs == (0,)
            assert c.curve.b.coeffs == (b,)
        if x_q is not None:
            assert c.divisor.x_base.coeffs == (x_q,)
        assert (c.code.n, c.code.k_dim) == (p * p, 2 * k)
        assert classify_mds_nmds(c.iso.group, k) == "NMDS"
        witness = zero_sum_witness_positions(c.iso.group, c.iso.residues, k)
        assert pin_min_distance(c.code, witness) == p * p - 2 * k
    elapsed = time.perf_counter() - start
    criterion_record(4, f"4 catalog rows rebuilt and certified; {elapsed:.2f}s < 120s")
    assert elapsed < 120


def _invariant_factor_chains(order: int) -> list[tuple[int, ...]]:
    chains: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int) -> None:
        if remaining == 1:
            chains.append(tuple(prefix))
            return
        lower = prefix[-1] if prefix else 2
        for d in range(lower, remaining + 1):
            if remaining % d == 0 and (not prefix or d % prefix[-1] == 0):
                extend(prefix + [d], remaining // d)

    extend([], order)
    return chains


def test_criterion_05_subset_formula_exhaustive(criterion_record):
    start = time.perf_counter()
    groups_checked = 0
    for order in range(1, 17):
        for chain in _invariant_factor_chains(order):
            group = AbelianGroup(chain)
            groups_checked += 1
            for k in range(1, order + 1):
                table = brute_force_count_table(group, k)
                total = 0
                for x in group.elements():
                    value = count_subsets_full(group, k, x)
                    assert value == table.get(x, 0), (chain, k, x.residues)
                    total += value
                assert total == comb(order, k)
                if k <= order - 1:
                    star = brute_force_count_table(group, k, exclude_zero=True)
                    for x in group.elements():
                        value = count_subsets_nonzero(group, k, x)
                        assert value == star.get(x, 0), (chain, k, x.residues)
    elapsed = time.perf_counter() - start
    criterion_record(
        5,
        f"both counts match the oracle on {groups_checked} groups of order <= 16;"
        f" {elapsed:.2f}s < 600s",
    )
    assert elapsed < 600


def test_criterion_06_mid_scale_design(criterion_record):
    start = time.perf_counter()
    c = construct(31, 5, 5)
    masks = subset_sum_masks(c.iso.group, c.iso.residues, 10, c.iso.group.zero())
    assert len(masks) == 130760
    a_15 = min_weight_count_formula(5, 31, 5)
    assert a_15 == 3922800
    assert a_15 == 30 * 130760
    n = 25
    complements = tuple(
        tuple(i for i in range(n) if not (m >> i) & 1) for m in mask_ints(masks)
    )
    report = verify_design(DesignInstance.from_positions(n, 15, complements), 2)
    assert report.is_design and report.lam == 45766
    assert report.lam == lambda_closed_form(5, 5)
    design = certify_two_design(c.iso.group, c.iso.residues, 5)
    assert design.mode == "measured"
    assert design.lambda_primal == 45766
    assert design.lambda_dual == 19614 == lambda_dual_closed_form(5, 5)
    assert design.block_count == 130760
    elapsed = time.perf_counter() - start
    criterion_record(
        6, f"130760 blocks, A_15 = 3922800, lambda = 45766; {elapsed:.2f}s < 600s"
    )
    assert elapsed < 600


def test_criterion_07_structural_certificate(criterion_record):
    start = time.perf_counter()
    c = construct(7, 3, 3)
    assert nmds_structural_check(c.code)
    primal = min_weight_supports(c.iso.group, c.iso.residues, 3)
    dual_family = supports_of_weight(dual_code(c.code), 6)
    pairs = disjoint_support_pairing(primal, dual_family)
    assert len(pairs) == 12
    assert sorted(i for i, _ in pairs) == list(range(12))
    for i, j in pairs:
        assert not (primal.blocks[i] & dual_family.blocks[j]).any()
    elapsed = time.perf_counter() - start
    criterion_record(
        7, f"column conditions pass, all 12 blocks paired disjointly; {elapsed:.2f}s < 30s"
    )
    assert elapsed < 30


def test_criterion_08_positivity(criterion_record):
    start = time.perf_counter()
    for p in (3, 5):
        group = AbelianGroup((p, p))
        n = group.order
        for k in range(1, n + 1):
            for x in group.elements():
                value = count_subsets_full(group, k, x)
                trivial = k == n and bool(x)
                assert (value == 0) == trivial, (p, k, x.residues, value)
        for k in range(1, n):
            for x in group.elements():
                value = count_subsets_nonzero(group, k, x)
                trivial = (
                    (k == 1 and not x)
                    or (k == n - 2 and not x)
                    or (k == n - 1 and bool(x))
                )
                assert (value == 0) == trivial, (p, k, x.residues, value)
    elapsed = time.perf_counter() - start
    criterion_record(
        8, f"positivity exact off the trivial cases for 3x3 and 5x5; {elapsed:.2f}s < 60s"
    )
    assert elapsed < 60


def test_criterion_09_am_vs_gam(criterion_record):
    start = time.perf_counter()
    assert am_hypothesis_check(construct(7, 3, 3).code) == "GAM-only"
    elapsed = time.perf_counter() - start
    criterion_record(9, f"[9,6,3] reported GAM-only; {elapsed:.2f}s < 5s")
    assert elapsed < 5


def test_criterion_10_large_row_formula_consistency(criterion_record):
    # Full certification of the largest admissible rows is out of
    # enumeration reach; this checks every formula-level consequence
    # that is decidable exactly at that scale.
    start = time.perf_counter()
    q, p = 3946183, 1987
    assert triple_conditions(q, p) == 1985
    k = p
    a_min = min_weight_count_formula(p, q, k)  # exact division asserted inside
    assert a_min % (q - 1) == 0
    block_count = a_min // (q - 1)
    lam = lambda_closed_form(p, k)  # integrality asserted inside
    lam_dual = lambda_dual_closed_form(p, k)
    assert lam > 0 and lam_dual > 0
    w = p * p - 2 * k
    assert lam * comb(p * p, 2) == comb(w, 2) * block_count
    assert lam_dual * comb(p * p, 2) == comb(2 * k, 2) * block_count
    # distribution totals: recurrences must account for every codeword
    primal, dual = nmds_weight_distribution(9, 6, 7, 72)
    assert primal.total() == 7**6 and dual.total() == 7**3
    a_15 = min_weight_count_formula(5, 31, 5)
    primal25, dual25 = nmds_weight_distribution(25, 10, 31, a_15)
    assert primal25.total() == 31**10 and dual25.total() == 31**15
    elapsed = time.perf_counter() - start
    criterion_record(
        10,
        "q=3946183 row consistent at formula level (division, integrality,"
        f" totals); {elapsed:.2f}s",
    )
    assert elapsed < 600
