import re
from fractions import Fraction
from math import comb

import numpy as np
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
    WeightDistribution,
    weight_distribution_bruteforce,
    zero_sum_witness_positions,
)
from nmdscodes.code_builder import LinearCode, dual_code
from nmdscodes.errors import CertificationError, HypothesisError
from nmdscodes.finite_field import FieldSpec
from nmdscodes.param_search import construct
from nmdscodes.subset_designs import (
    AbelianGroup,
    DesignInstance,
    complement_blocks,
    count_subsets,
    mask_positions,
    subset_sum_blocks,
    verify_design,
)

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


def test_disjoint_support_pairing_refuses_a_support_that_meets_every_dual():
    primal = DesignInstance.from_positions(4, 2, [(0, 1)])
    dual = DesignInstance.from_positions(4, 2, [(1, 2), (0, 3)])
    message = "primal support (0, 1) meets every dual minimum-weight support"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        disjoint_support_pairing(primal, dual)


def test_no_zero_sum_witness_in_a_group_without_one():
    # 1 + 2, 1 + 4 and 2 + 4 are all nonzero in Z_7
    residues = np.array([[1], [2], [4]])
    message = "no zero-sum subset exists; the code is MDS"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        zero_sum_witness_positions(AbelianGroup((7,)), residues, 1)


@pytest.mark.parametrize("factors, k, want", [((9,), 2, (0, 2, 3, 4)), ((3, 9), 3, (0, 1, 2, 4, 5, 6))])
def test_zero_sum_witness_in_any_other_group_is_the_first_listed_subset(factors, k, want):
    # not Z_p + Z_p: the witness is read off the zero-sum 2k-subset listing
    group = AbelianGroup(factors)
    residues = group.residues()
    witness = zero_sum_witness_positions(group, residues, k)
    assert witness == want
    assert len(set(witness)) == 2 * k
    assert not (residues[list(witness)].sum(axis=0) % factors).any()


def test_zero_sum_witness_pins_distance():
    c = _example()
    witness = zero_sum_witness_positions(c.iso.group, c.iso.residues, 3)
    assert len(witness) == 6
    assert pin_min_distance(c.code, witness) == 3


def test_pin_min_distance_refuses_a_witness_word_of_the_wrong_weight():
    # the stored word vanishes on the witness; made nonzero at one of its
    # positions it has weight 4, and d is not pinned by it
    c = _example()
    witness, word = c.code.certificate
    patched = word.copy()
    patched[witness[0]] = 1
    with pytest.raises(CertificationError, match="^witness codeword has weight 4, expected 3$"):
        pin_min_distance(c.code, witness, patched)
    assert pin_min_distance(c.code, witness, word) == 3


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
    cert = certify_two_design(*_labels(_example()), 3)
    assert cert.mode == "measured"
    assert cert.lambda_primal == 1
    assert cert.lambda_dual == 5
    assert cert.block_count == 12
    assert cert.primal_report is not None and cert.primal_report.is_design
    assert cert.dual_report is not None and cert.dual_report.is_design


def test_certify_two_design_theory_mode_over_budget():
    cert = certify_two_design(*_labels(_example()), 3, budget=10)
    assert cert.mode == "theory-implied"
    assert cert.lambda_primal == 1
    assert cert.primal_report is None


# Each check on the measured-design path below raises when the value that
# feeds it is off, and the CLI maps the raise to exit 4 with its message.
_VERIFY_DESIGN = ("verify-design", "--q", "7", "--p", "3", "--k", "3")
_TABLE3 = ("table3", "--rows", "7", "--json")


def _exits_4(capsys, argv, message):
    from nmdscodes.cli import main

    assert main(list(argv)) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: certification mismatch: {message}\n")


def test_supports_refuse_points_that_do_not_sum_to_zero(capsys, monkeypatch):
    import nmdscodes.cli as cli

    def moved(group, residues, k, budget=None):
        residues = residues.copy()
        residues[0] = (residues[0] + (1, 0)) % 3
        return min_weight_supports(group, residues, k, budget=budget)

    message = "rational points do not sum to zero"
    with pytest.raises(CertificationError, match=f"^{message}$"):
        moved(*_labels(_example()), 3)
    monkeypatch.setattr(cli, "min_weight_supports", moved)
    _exits_4(capsys, _VERIFY_DESIGN, message)


def test_supports_refuse_a_listing_short_of_the_closed_form(capsys, monkeypatch):
    import nmdscodes.code_analysis as ca

    real = ca.subset_sum_masks
    monkeypatch.setattr(ca, "subset_sum_masks", lambda *a, **kw: real(*a, **kw)[1:])
    message = "enumerated 11 zero-sum 3-subsets, closed form says 12"
    with pytest.raises(CertificationError, match=f"^{message}$"):
        min_weight_supports(*_labels(_example()), 3)
    _exits_4(capsys, _VERIFY_DESIGN, message)
    _exits_4(capsys, _TABLE3, message)


def test_certificate_refuses_a_family_short_of_the_block_count(capsys, monkeypatch):
    import nmdscodes.code_analysis as ca

    def short(group, residues, k, budget=None):
        family = min_weight_supports(group, residues, k, budget=budget)
        return DesignInstance(family.v, family.block_size, family.blocks[1:])

    monkeypatch.setattr(ca, "min_weight_supports", short)
    message = "support family size 11 != A_min/(q-1) = 12"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        certify_two_design(*_labels(_example()), 3)
    _exits_4(capsys, _TABLE3, message)


def test_certificate_refuses_a_measured_lambda_off_the_closed_form(capsys, monkeypatch):
    import nmdscodes.code_analysis as ca

    monkeypatch.setattr(ca, "lambda_closed_form", lambda p, k: lambda_closed_form(p, k) + 1)
    message = ("measured primal design DesignCheckReport(v=9, block_size=3, t=2,"
               " is_design=True, lam=1, block_count=12, simple=True, witness=None)"
               " disagrees with lambda = 2")
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        certify_two_design(*_labels(_example()), 3)
    _exits_4(capsys, _TABLE3, message)


def test_verify_design_refuses_a_coverage_off_the_identity(capsys, monkeypatch):
    # the 12 lines of AG(2, 3) cover every pair once; a coverage of 2 with
    # no witness breaks C(9, 2) lam = C(3, 2) b
    import nmdscodes.subset_designs as sd

    real = sd._coverage
    monkeypatch.setattr(sd, "_coverage", lambda design, t: (real(design, t)[0] + 1, None))
    group = AbelianGroup((3, 3))
    design = subset_sum_blocks(group, 3, group.zero())
    message = "coverage identity violated: C(9,2)*2 != C(3,2)*12"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        verify_design(design, 2)
    _exits_4(capsys, _VERIFY_DESIGN, message)


def test_closed_form_refuses_a_total_not_divisible_by_the_order(capsys, monkeypatch):
    # one more element killed by 3 in Z_3 + Z_3 moves the Moebius sum of the
    # zero-sum 3-subsets (and 6-subsets) from 108 to 111, which 9 does not divide
    import nmdscodes.subset_designs as sd

    real = sd.group_invariants

    def torsion_plus_one(group, x):
        exp, e_x, torsion = real(group, x)
        return exp, e_x, {**torsion, 3: torsion[3] + 1}

    monkeypatch.setattr(sd, "group_invariants", torsion_plus_one)
    group = AbelianGroup((3, 3))
    message = "subset count not divisible by group order: 111 / 9"
    with pytest.raises(CertificationError, match=f"^{message}$"):
        count_subsets(group, 3, group.zero())
    _exits_4(capsys, _VERIFY_DESIGN, message)


def test_macwilliams_refuses_a_distribution_of_no_code():
    # A_0 = A_1 = 1 on n = 1 over F_7 with k_dim = 1: the dual count at
    # weight 0 is (1 + 1) / 7
    with pytest.raises(CertificationError, match="^MacWilliams transform is not integral$"):
        macwilliams_transform(WeightDistribution((1, 1)), 7, 1)


def test_supports_of_weight_refuses_a_support_carrying_more_than_q_minus_1_words():
    # rows (1, 0, 0) and (0, 1, 0) over F_7: all 36 words a e0 + b e1 with
    # a, b != 0 share the support {0, 1}
    code = LinearCode(field=FieldSpec(7), n=3, k_dim=2, matrix=np.array([[1, 0, 0], [0, 1, 0]]))
    message = "support (0, 1) carries 36 codewords, expected 6"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        supports_of_weight(code, 2)


_WEIGHTS = ("weights", "--q", "7", "--p", "3", "--k", "3")


def test_block_count_refuses_a_count_not_divisible_by_p_squared(capsys, monkeypatch):
    # C(9, 6) read as 85: b = (85 + 8 C(3, 2)) / 9 leaves remainder 1
    import nmdscodes.code_analysis as ca

    monkeypatch.setattr(ca, "comb", lambda n, k: comb(n, k) + ((n, k) == (9, 6)))
    message = "minimum-weight block count is not integral"
    with pytest.raises(CertificationError, match=f"^{message}$"):
        min_weight_count_formula(3, 7, 3)
    _exits_4(capsys, _WEIGHTS, message)
    _exits_4(capsys, _TABLE3, message)


def test_support_coverage_refuses_a_lambda_that_is_not_integral(capsys, monkeypatch):
    # b = 13 in place of 12 at p = k = 3: lambda_2 = 13 C(3, 2) / C(9, 2) = 39 / 36
    import nmdscodes.code_analysis as ca

    real = ca._block_count
    monkeypatch.setattr(ca, "_block_count", lambda p, k: real(p, k) + 1)
    message = "closed-form lambda_2 is not integral"
    with pytest.raises(CertificationError, match=f"^{message}$"):
        support_coverage(3, 3, 3, 2)
    _exits_4(capsys, _VERIFY_DESIGN, message)
    _exits_4(capsys, _TABLE3, message)


def test_recurrence_refuses_a_layer_whose_total_is_not_q_to_the_dimension(monkeypatch):
    # C(n, m0) one too large scales every count of the layer but A_0 and
    # A_min: each stays nonnegative, and the total misses 7^6
    import nmdscodes.code_analysis as ca

    monkeypatch.setattr(ca, "comb", lambda n, k: comb(n, k) + 1)
    message = "distribution totals disagree with q^k / q^(n-k)"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        nmds_weight_distribution(9, 6, 7, 72)


def test_am_check_reports_gam_only():
    assert am_hypothesis_check(_example().code) == "GAM-only"


def test_am_check_reports_neither_when_no_route_applies():
    # rows (1, 0, 0) and (0, 1, 0) over F_7: d = d_dual = 1 is not above
    # t = 2, and d_dual != k, so the code is not near-MDS either
    code = LinearCode(field=FieldSpec(7), n=3, k_dim=2, matrix=np.array([[1, 0, 0], [0, 1, 0]]))
    assert am_hypothesis_check(code) == "neither"


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
