from fractions import Fraction
from math import comb

import pytest

from field_reference import mask_ints, matrix_of
from nmdscodes.code_analysis import (
    am_hypothesis_check,
    certify_two_design,
    disjoint_support_pairing,
    lambda_closed_form,
    lambda_dual_closed_form,
    macwilliams_transform,
    min_weight_count_formula,
    min_weight_supports,
    nmds_weight_distribution,
    pin_min_distance,
    support_coverage,
    supports_of_weight,
    weight_distribution_bruteforce,
    zero_sum_witness_positions,
)
from nmdscodes.code_builder import dual_code
from nmdscodes.errors import CertificationError, HypothesisError
from nmdscodes.finite_field import FieldSpec
from nmdscodes.param_search import construct
from nmdscodes.subset_designs import complement_blocks, mask_positions

EXAMPLE_PRIMAL = (1, 0, 0, 72, 324, 3348, 10656, 30024, 43794, 29430)
EXAMPLE_DUAL = (1, 0, 0, 0, 0, 0, 72, 0, 216, 54)


def _example():
    return construct(7, 3, 3, b=2)


def _labels(c):
    """The point group and the residues of the code coordinates' points."""
    return c.iso.group, c.iso.residues


def test_bruteforce_distribution_matches_example():
    dist = weight_distribution_bruteforce(_example().code)
    assert dist.counts == EXAMPLE_PRIMAL
    assert dist.total() == 7**6
    assert dist.min_weight() == 3


def test_macwilliams_matches_dual_bruteforce():
    code = _example().code
    dist = weight_distribution_bruteforce(code)
    dual_via_transform = macwilliams_transform(dist, 7, 6)
    assert dual_via_transform.counts == EXAMPLE_DUAL
    dual_direct = weight_distribution_bruteforce(dual_code(code))
    assert dual_direct.counts == EXAMPLE_DUAL


def test_recurrence_distribution_matches_example():
    primal, dual = nmds_weight_distribution(9, 6, 7, 72)
    assert primal.counts == EXAMPLE_PRIMAL
    assert dual.counts == EXAMPLE_DUAL


def test_recurrence_rejects_wrong_a_min():
    # far-off A_min forces a negative intermediate count
    with pytest.raises(CertificationError):
        nmds_weight_distribution(9, 6, 7, 100000)


def test_min_weight_count_formula_values():
    assert min_weight_count_formula(3, 7, 3) == 72
    assert min_weight_count_formula(3, 13, 3) == 144
    assert min_weight_count_formula(5, 31, 5) == 3922800
    with pytest.raises(HypothesisError):
        min_weight_count_formula(3, 7, 2)


def test_lambda_closed_forms():
    assert lambda_closed_form(3, 3) == 1
    assert lambda_dual_closed_form(3, 3) == 5
    assert lambda_closed_form(5, 5) == 45766
    assert lambda_dual_closed_form(5, 5) == 19614
    assert lambda_closed_form(5, 10) == 71
    assert lambda_dual_closed_form(5, 10) == 1349


def _expanded_closed_forms(p, q, k):
    """A_min, lambda and lambda_dual with the bracket expanded in each."""
    num = (q - 1) * (comb(p * p, 2 * k) + (p * p - 1) * comb(p, 2 * k // p))
    assert num % (p * p) == 0
    a_min = num // (p * p)
    num = 2 * comb(p * p - 2 * k, 2) * (comb(p * p, 2 * k) + (p * p - 1) * comb(p, 2 * k // p))
    lam = Fraction(num, p**4 * (p * p - 1))
    w = p * p - 2 * k
    num = 4 * k * (2 * k - 1) * comb(w, 2) * (
        comb(p * p, 2 * k) + (p * p - 1) * comb(p, 2 * k // p)
    )
    lam_dual = Fraction(num, p**4 * (p * p - 1) * w * (w - 1))
    assert lam.denominator == lam_dual.denominator == 1
    return a_min, int(lam), int(lam_dual)


def test_one_block_count_matches_the_expanded_closed_forms():
    # every odd prime p <= 73 and k = p, 2p, ... below p^2 / 2; the lambda_t
    # of both families for t < 2 against the design-parameter ladder
    # lambda_t = lambda_2 C(v - t, 2 - t) / C(size - t, 2 - t)
    for p in (p for p in range(3, 74, 2) if all(p % d for d in range(3, p, 2))):
        for k in range(p, (p * p + 1) // 2, p):
            a_min, lam, lam_dual = _expanded_closed_forms(p, 4423, k)
            assert min_weight_count_formula(p, 4423, k) == a_min, (p, k)
            assert (lambda_closed_form(p, k), lambda_dual_closed_form(p, k)) == (lam, lam_dual)
            for size, lam2 in ((p * p - 2 * k, lam), (2 * k, lam_dual)):
                ladder = [Fraction(lam2 * comb(p * p - t, 2 - t), comb(size - t, 2 - t))
                          for t in (0, 1, 2)]
                assert [support_coverage(p, k, size, t) for t in (0, 1, 2)] == ladder
    for size, t in (3, 3), (3, -1), (4, 2):
        with pytest.raises(HypothesisError):
            support_coverage(3, 3, size, t)


def test_min_weight_supports_form_steiner_system():
    family = min_weight_supports(*_labels(_example()), 3)
    assert family.block_size == 3 and family.v == 9
    assert len(family.blocks) == 12
    flat = sorted(i for block in family.blocks for i in mask_positions(block))
    assert flat == sorted(list(range(9)) * 4)  # each point in r = 4 blocks


def test_supports_agree_with_codeword_sweep():
    c = _example()
    family = min_weight_supports(c.iso.group, c.iso.residues, 3)
    swept = supports_of_weight(c.code, 3)
    assert mask_ints(family.blocks) == mask_ints(swept.blocks)
    # the complements of the rows are the dual's weight-6 supports
    dual = complement_blocks(family.blocks, 9)
    dual_swept = supports_of_weight(dual_code(c.code), 6)
    assert sorted(mask_ints(dual)) == mask_ints(dual_swept.blocks)
    for block, comp in zip(family.blocks, dual):
        assert sorted(mask_positions(block) + mask_positions(comp)) == list(range(9))


def test_disjoint_support_pairing_complete():
    c = _example()
    primal = min_weight_supports(c.iso.group, c.iso.residues, 3)
    dual_fam = supports_of_weight(dual_code(c.code), 6)
    pairs = disjoint_support_pairing(primal, dual_fam)
    assert len(pairs) == len(primal.blocks)
    for i, j in pairs:
        assert not (primal.blocks[i] & dual_fam.blocks[j]).any()


def test_zero_sum_witness_pins_distance():
    c = _example()
    witness = zero_sum_witness_positions(c.iso.group, c.iso.residues, 3)
    assert len(witness) == 6
    assert pin_min_distance(c.code, witness) == 3


def _dict_witness(elements, k):
    """The Z_p + Z_p witness as it was found from GroupElements: a dict from
    element to position, looked up at the 2k/p cosets (i, j), j < 2k/p."""
    group = elements[0].group
    p = group.factors[0]
    index_of = {v: i for i, v in enumerate(elements)}
    cosets = (group.element((i, j)) for j in range(2 * k // p) for i in range(p))
    return tuple(sorted(index_of[v] for v in cosets))


def test_residue_witness_matches_the_dict_witness():
    from nmdscodes.cli import CATALOG_ROWS

    for q, p in CATALOG_ROWS + ((343, 19),):
        c = construct(q, p, p)
        elements = [c.iso.group.element(r) for r in c.iso.residues.tolist()]
        for k in range(p, (p * p + 1) // 2, p):
            want = _dict_witness(elements, k)
            assert zero_sum_witness_positions(c.iso.group, c.iso.residues, k) == want, (q, k)


def test_certify_two_design_measured():
    cert = certify_two_design(*_labels(_example()), 7, 3)
    assert cert.mode == "measured"
    assert cert.lambda_primal == 1
    assert cert.lambda_dual == 5
    assert cert.block_count == 12
    assert cert.primal_report is not None and cert.primal_report.is_design
    assert cert.dual_report is not None and cert.dual_report.is_design


def test_certify_two_design_theory_mode_over_budget():
    cert = certify_two_design(*_labels(_example()), 7, 3, budget=10)
    assert cert.mode == "theory-implied"
    assert cert.lambda_primal == 1
    assert cert.primal_report is None


def test_am_check_reports_gam_only():
    assert am_hypothesis_check(_example().code) == "GAM-only"


def test_am_check_satisfied_for_equidistant_code():
    # extended Reed-Solomon [8,2,7] over F_7: every nonzero codeword has
    # weight 7, so at t = 1 the single live weight fits under the bound
    # d_dual - t = 2 and the classical route applies
    from nmdscodes.code_builder import LinearCode

    spec = FieldSpec(7)
    rows = (
        tuple([spec(1)] * 7 + [spec(0)]),
        tuple([spec(v) for v in range(7)] + [spec(1)]),
    )
    code = LinearCode(field=spec, n=8, k_dim=2, matrix=matrix_of(rows, spec))
    dist = weight_distribution_bruteforce(code)
    assert dist.nonzero_weights() == [7]
    assert am_hypothesis_check(code, t=1, dist=dist) == "AM-satisfied"


def test_weight_distribution_invariants_window():
    # distributions for several k at p = 5, q = 31 stay consistent with
    # the MacWilliams transform
    for k in (5, 10):
        a_min = min_weight_count_formula(5, 31, k)
        primal, dual = nmds_weight_distribution(25, 2 * k, 31, a_min)
        assert macwilliams_transform(primal, 31, 2 * k).counts == dual.counts
        assert primal.total() == 31 ** (2 * k)
        assert dual.total() == 31 ** (25 - 2 * k)
        assert all(primal.counts[w] > 0 for w in range(25 - 2 * k, 26))
