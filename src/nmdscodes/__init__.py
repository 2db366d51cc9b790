"""Near-MDS elliptic-curve codes of length p^2 and their support designs.

Pipeline: pick (q, p) with triple_conditions / search_parameters, then
construct(q, p, k) finds a curve with p^2 rational points (the curve
scan and verify_curve that find_curve also runs, unless b is given),
builds the evaluation code from a trace-zero divisor (make_divisor +
build_code) and returns a Construction holding the point group map and
the code, each computed once.  The map (iso) is the curve's certificate:
it holds the curve, its group (an AbelianGroup), its points as one
PointSet of integer field indices (the one form in which points enter
the curve and code layers), and one array of group residues
(iso.residues) labelling them, which the witness, the support designs
and the subset-sum engine read directly.  Every block family is a
DesignInstance: min_weight_supports lists the minimum-weight supports
once, and the dual's are their complements, which verify_design reads
from the same rows (complement=True; complement_blocks copies them).  The
analyses read from it: weight distributions, minimum-weight support
designs whose block count and coverages come from one closed-form count,
and NMDS certificates, each checked two independent ways where feasible.
"""

from .errors import BudgetError, CertificationError, HypothesisError
from .finite_field import (
    FieldElement,
    FieldSpec,
    QuadraticExtension,
    frobenius,
    is_square,
    quadratic_extension,
    smallest_nonsquare,
    sqrt,
)
from .elliptic_curve import (
    Curve,
    Point,
    PointGroupMap,
    PointSet,
    find_trace_zero_point,
    point_group_isomorphism,
)
from .subset_designs import (
    AbelianGroup,
    DesignCheckReport,
    DesignInstance,
    GroupElement,
    brute_force_count_table,
    brute_force_counts,
    complement_blocks,
    count_subsets,
    count_subsets_full,
    count_subsets_nonzero,
    is_design_subset_sums,
    mask_positions,
    subset_sum_blocks,
    subset_sum_masks,
    verify_design,
)
from .code_builder import (
    DivisorSpec,
    LinearCode,
    build_code,
    classify_mds_nmds,
    codeword_vanishing_on,
    dual_code,
    make_divisor,
    nmds_structural_check,
)
from .code_analysis import (
    TwoDesignCertificate,
    WeightDistribution,
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
from .param_search import (
    Construction,
    ParameterTriple,
    build_table_row,
    construct,
    find_curve,
    search_parameters,
    triple_conditions,
    verify_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BudgetError",
    "CertificationError",
    "Construction",
    "Curve",
    "DesignCheckReport",
    "DesignInstance",
    "DivisorSpec",
    "FieldElement",
    "FieldSpec",
    "GroupElement",
    "HypothesisError",
    "LinearCode",
    "ParameterTriple",
    "Point",
    "PointGroupMap",
    "PointSet",
    "QuadraticExtension",
    "TwoDesignCertificate",
    "WeightDistribution",
    "am_hypothesis_check",
    "brute_force_count_table",
    "brute_force_counts",
    "build_code",
    "build_table_row",
    "certify_two_design",
    "classify_mds_nmds",
    "codeword_vanishing_on",
    "complement_blocks",
    "construct",
    "count_subsets",
    "count_subsets_full",
    "count_subsets_nonzero",
    "disjoint_support_pairing",
    "dual_code",
    "find_curve",
    "find_trace_zero_point",
    "frobenius",
    "is_design_subset_sums",
    "is_square",
    "lambda_closed_form",
    "lambda_dual_closed_form",
    "macwilliams_transform",
    "make_divisor",
    "mask_positions",
    "min_weight_count_formula",
    "min_weight_supports",
    "nmds_structural_check",
    "nmds_weight_distribution",
    "pin_min_distance",
    "point_group_isomorphism",
    "quadratic_extension",
    "search_parameters",
    "smallest_nonsquare",
    "sqrt",
    "subset_sum_blocks",
    "subset_sum_masks",
    "support_coverage",
    "supports_of_weight",
    "triple_conditions",
    "verify_curve",
    "verify_design",
    "weight_distribution_bruteforce",
    "zero_sum_witness_positions",
]
