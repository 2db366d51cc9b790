from dataclasses import fields

import numpy as np
import pytest

from field_reference import (
    elements,
    evaluate_rr,
    matrix_of,
    regular_matrix_by_planes,
    rr_basis,
    vanishing_word,
)
from nmdscodes.cli import CATALOG_ROWS
from nmdscodes.code_builder import (
    _certify_rank,
    DivisorSpec,
    build_code,
    classify_mds_nmds,
    codeword_vanishing_on,
    dual_code,
    make_divisor,
    nmds_structural_check,
)
from nmdscodes.elliptic_curve import Curve
from nmdscodes.errors import BudgetError, CertificationError, HypothesisError
from nmdscodes.finite_field import FieldSpec, quadratic_extension
from nmdscodes.linalg import rank, regular_matrix
from nmdscodes.param_search import construct

# generator matrix of the [9,6,3] code over F_7 (curve y^2 = x^3 + 2,
# divisor 3(Q + phi(Q)) at x_Q = 1), rows in basis order
# 1, u^-1, u^-2, u^-3, y u^-2, y u^-3 with u = x - x_Q
FROZEN_MATRIX = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 6, 6, 4, 4, 2, 2, 3, 3],
    [0, 1, 1, 2, 2, 4, 4, 2, 2],
    [0, 6, 6, 1, 1, 1, 1, 6, 6],
    [0, 3, 4, 2, 5, 4, 3, 2, 5],
    [0, 4, 3, 1, 6, 1, 6, 6, 1],
]


def _example():
    return construct(7, 3, 3, b=2)


def test_generator_matrix_regression():
    code = _example().code
    assert code.n == 9 and code.k_dim == 6
    assert code.gen_rows_json() == FROZEN_MATRIX


def test_make_divisor_certifies_the_trace_zero_point_once(monkeypatch):
    # Q on the lifted curve, and phi(Q) = (x, -y) by one Frobenius per
    # coordinate: no Frobenius point, no group law, and D is (k, x_Q)
    from nmdscodes import elliptic_curve

    calls = {"_ff_frobenius": 0, "contains": 0, "_chord_tangent": 0}
    for owner, name in zip((elliptic_curve, Curve, Curve), calls):

        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    base = FieldSpec(3541)
    divisor = make_divisor(Curve.from_coefficients(base, 0, 7), quadratic_extension(base), 59)
    assert calls == {"_ff_frobenius": 2, "contains": 1, "_chord_tangent": 0}
    assert divisor == DivisorSpec(k=59, x_base=base(0))
    assert [f.name for f in fields(DivisorSpec)] == ["k", "x_base"]


def test_rr_basis_shape():
    base = FieldSpec(7)
    curve = Curve.from_coefficients(base, 0, 2)
    ext = quadratic_extension(base)
    divisor = make_divisor(curve, ext, 3)
    basis = rr_basis(divisor)
    assert len(basis) == 6
    kinds = [f.kind for f in basis]
    assert kinds == ["one", "inv_pow", "inv_pow", "inv_pow", "y_inv_pow", "y_inv_pow"]


def test_evaluate_at_infinity_column():
    col = [row[0] for row in _example().code.gen_rows_json()]
    assert col == [1, 0, 0, 0, 0, 0]


def test_pole_evaluation_rejected():
    # no rational point has x = x_Q (that is what makes the evaluation
    # well-defined), so exercise the guard with a synthetic point
    from nmdscodes.elliptic_curve import Point

    base = FieldSpec(7)
    curve = Curve.from_coefficients(base, 0, 2)
    ext = quadratic_extension(base)
    divisor = make_divisor(curve, ext, 3)
    f = rr_basis(divisor)[1]
    fake = Point(divisor.x_base, base(0))
    with pytest.raises(HypothesisError):
        evaluate_rr(f, fake)


def test_dual_code_orthogonality():
    code = _example().code
    dual = dual_code(code)
    assert dual.n == 9 and dual.k_dim == 3
    zero = code.field.zero()
    for row in elements(code):
        for drow in elements(dual):
            acc = zero
            for a, b in zip(row, drow):
                acc = acc + a * b
            assert acc == zero


def test_classification_nmds():
    c = _example()
    assert classify_mds_nmds(c.iso.group, 3) == "NMDS"


def test_structural_check_passes():
    assert nmds_structural_check(_example().code)


def test_structural_check_fails_for_mds_code():
    # Reed-Solomon [6,3] over F_7 is MDS: no k-1 column subset is rank
    # deficient and no deficient witness exists, so the check must fail
    from nmdscodes.code_builder import LinearCode

    spec = FieldSpec(7)
    xs = [spec(v) for v in range(6)]
    rows = [[x**e for x in xs] for e in range(3)]
    code = LinearCode(field=spec, n=6, k_dim=3, matrix=matrix_of(rows, spec))
    assert not nmds_structural_check(code)


def test_structural_check_charges_the_regular_submatrix_cells():
    # Reed-Solomon [6,3] over F_25: (C(6,2)*3*2 + C(6,3)*3*3 + C(6,4)*3*4)
    # cells of 2 x 2 blocks, 450 * 4 = 1800, are charged before any rank
    from nmdscodes.code_builder import LinearCode

    spec = FieldSpec(5, 2)
    xs = list(spec.elements())[:6]
    rows = [[x**e for x in xs] for e in range(3)]
    code = LinearCode(field=spec, n=6, k_dim=3, matrix=matrix_of(rows, spec))
    with pytest.raises(BudgetError, match="^1800 submatrix cells of column subsets exceed budget 1799$"):
        nmds_structural_check(code, budget=1799)
    assert not nmds_structural_check(code, budget=1800)


def test_vanishing_codeword_weight():
    code = _example().code
    # positions of a zero-sum 6-subset: complement of any min-weight support
    word = codeword_vanishing_on(code, (0, 1, 3, 4, 6, 7))
    assert word.shape == (9, 1)
    weight = sum(1 for v in word.tolist() if any(v))
    assert weight == 3
    for i in (0, 1, 3, 4, 6, 7):
        assert not word[i].any()


def test_vanishing_codeword_refuses_a_kernel_of_dimension_two():
    # u G_S = 0 on 4 of the columns of the 6-row generator, every 5 of
    # which are independent: a plane of messages, so no unique direction
    code = _example().code
    assert rank(code.matrix[:, [0, 1, 3, 4]], code.field) == 4
    with pytest.raises(CertificationError, match="^expected a unique codeword direction$"):
        codeword_vanishing_on(code, (0, 1, 3, 4))


def test_bad_dimension_rejected():
    base = FieldSpec(7)
    curve = Curve.from_coefficients(base, 0, 2)
    ext = quadratic_extension(base)
    with pytest.raises(HypothesisError):
        make_divisor(curve, ext, 0)
    divisor = make_divisor(curve, ext, 5)  # 2k = 10 > n = 9
    with pytest.raises(HypothesisError):
        build_code(curve, divisor, curve.points())


def test_json_rows_encode_extension_field_elements():
    # build --json prints gen_rows_json(); over F_49 the entries are
    # encoded coefficient vectors, over prime fields plain residues
    from nmdscodes.code_builder import LinearCode

    spec = FieldSpec(7, 2)
    z = spec.gen()
    row = (spec.one(), z, z * z + spec(3))
    code = LinearCode(field=spec, n=3, k_dim=1, matrix=matrix_of([row], spec))
    assert code.gen_rows_json() == [["1,0", "0,1", "2,0"]]
    assert code.text_grid() == "1,0 0,1 2,0"
    assert _example().code.gen_rows_json() == FROZEN_MATRIX


# (q, p) of the prime-field catalog rows the residue path is checked on
ORACLE_ROWS = ((7, 3), (13, 3), (31, 5), (43, 7), (157, 13), (307, 17))


def _reference_rows(divisor, points):
    """The generator matrix as evaluate_rr gives it, one element at a time."""
    return [[evaluate_rr(f, pt).coeffs[0] for pt in points] for f in rr_basis(divisor)]


def _oracle_cases():
    """(construction, divisor, code) at k = p and, where 2k < p^2, k = 2p."""
    from dataclasses import replace

    for q, p in ORACLE_ROWS:
        c = construct(q, p, p)
        yield c, c.divisor, c.code
        if 4 * p < p * p:
            divisor = replace(c.divisor, k=2 * p)
            yield c, divisor, build_code(c.curve, divisor, c.iso.points)


def test_residue_matrix_matches_evaluate_rr_and_witness_matches_matvec():
    from nmdscodes.code_analysis import zero_sum_witness_positions

    seen = 0
    for c, divisor, code in _oracle_cases():
        assert code.gen_rows_json() == _reference_rows(divisor, c.iso.points)
        positions = zero_sum_witness_positions(c.iso.group, c.iso.residues, divisor.k)
        word = codeword_vanishing_on(code, positions)
        expected = vanishing_word(code, positions)
        assert word.tolist() == [list(v.coeffs) for v in expected]
        assert sum(1 for v in expected if v) == code.n - code.k_dim
        seen += 1
    assert seen == 10  # k = 2p is out of range for p = 3


def test_residue_matrix_with_infinity_inside_the_point_list():
    c = _example()
    pts = list(c.iso.points)
    assert pts[0].is_infinity
    shuffled = pts[1:4] + pts[:1] + pts[4:]
    code = build_code(c.curve, c.divisor, shuffled)
    assert code.gen_rows_json() == _reference_rows(c.divisor, shuffled)
    assert [row[3] for row in code.gen_rows_json()] == [1, 0, 0, 0, 0, 0]


@pytest.fixture(scope="module")
def f3541():
    """The q = 3541 row: a [3481, 118, 3363] code, past the oracle rows."""
    return construct(3541, 59, 59)


def _row_by_row(c):
    """The residue matrix by the path build_code replaced: inv = 1/(x - x_Q)
    one point at a time, inv^i = inv inv^(i-1) one row at a time, each
    y inv^j by its own product, and (1, 0, ..., 0) at infinity."""
    p, k, x_q = c.curve.field.p, c.divisor.k, c.divisor.x_base.coeffs[0]
    pts = list(c.iso.points)
    affine = [i for i, pt in enumerate(pts) if not pt.is_infinity]
    inv = np.array([pow(pts[i].x.coeffs[0] - x_q, -1, p) for i in affine], dtype=np.int64)
    ys = np.array([pts[i].y.coeffs[0] for i in affine], dtype=np.int64)
    rows = np.zeros((2 * k, len(pts)), dtype=np.int64)
    rows[0] = 1
    rows[1, affine] = inv
    for i in range(2, k + 1):
        rows[i, affine] = inv * rows[i - 1, affine] % p
    for j in range(2, k + 1):
        rows[k + j - 1, affine] = ys * rows[j, affine] % p
    return rows


def test_residue_matrix_matches_the_row_by_row_path_at_q_3541(f3541):
    # ORACLE_ROWS stop at q = 307, since evaluate_rr is too slow past it;
    # at q = 7 the row-by-row path is the evaluate_rr matrix
    assert _row_by_row(_example()).tolist() == FROZEN_MATRIX
    assert f3541.iso.points[0].is_infinity
    assert np.array_equal(f3541.code.matrix, _row_by_row(f3541))


def test_prime_field_build_writes_the_generator_once(f3541):
    # the q = 3541 generator is 118 x 3481 residues, 3.13 MiB; building it
    # with its witness columns peaked at 2.03 times that with a row buffer
    # and a scatter into a zeroed copy, and at 1.15 times with the products
    # written in place
    import tracemalloc

    c = f3541
    tracemalloc.start()
    try:
        code = build_code(c.curve, c.divisor, c.iso.points, c.code.certificate[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(code.matrix, c.code.matrix)
    assert peak < 1.3 * code.matrix.nbytes


def test_build_code_rejects_a_point_on_the_pole():
    from nmdscodes.elliptic_curve import Point

    c = _example()
    fake = Point(c.divisor.x_base, c.curve.field(0))
    with pytest.raises(HypothesisError, match="hits the pole"):
        build_code(c.curve, c.divisor, list(c.iso.points) + [fake])


@pytest.fixture(scope="module")
def f343():
    """The q = 7^3 row: a [361, 38, 323] code, longer than q + 1 = 344."""
    return construct(343, 19, 19)


def test_extension_field_matrix_matches_evaluate_rr(f343):
    code, divisor, points = f343.code, f343.divisor, f343.iso.points
    assert code.field == FieldSpec(7, 3)
    assert (code.n, code.k_dim) == (361, 38)
    expected = [[list(evaluate_rr(f, pt).coeffs) for pt in points] for f in rr_basis(divisor)]
    assert code.coefficients().tolist() == expected


def test_extension_field_matrix_is_the_block_loop_of_its_coefficients(f343):
    # block columns 1..m-1 are filled in place from column 0
    code = f343.code
    assert np.array_equal(code.matrix, regular_matrix_by_planes(code.coefficients(), code.field))


def test_extension_field_build_memory_stays_bounded(f343):
    # the q = 7^3 generator is 38 x 361 over F_{7^3}; its regular matrix
    # is 0.94 MiB.  Building it peaked at 2.13 times that with a separate
    # coefficient array (2.48 times with a row buffer and a scatter, 3.05
    # times with a regular-matrix stack per product), and at 1.33 times
    # with the rows written into the regular matrix's block column 0
    import tracemalloc

    from nmdscodes.linalg import inverse_table

    inverse_table.cache_clear()  # the worst case: the inverse table is built inside
    tracemalloc.start()
    try:
        code = build_code(f343.curve, f343.divisor, f343.iso.points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(code.matrix, f343.code.matrix)
    assert peak < 1.4 * code.matrix.nbytes, peak / code.matrix.nbytes


def test_extension_field_code_is_nmds_with_distance_323(f343):
    from nmdscodes.code_analysis import pin_min_distance, zero_sum_witness_positions

    positions = zero_sum_witness_positions(f343.iso.group, f343.iso.residues, 19)
    assert pin_min_distance(f343.code, positions) == 323
    assert classify_mds_nmds(f343.iso.group, 19) == "NMDS"


def test_extension_field_vanishing_word_matches_field_element_matvec(f343):
    from nmdscodes.code_analysis import zero_sum_witness_positions

    positions = zero_sum_witness_positions(f343.iso.group, f343.iso.residues, 19)
    word = codeword_vanishing_on(f343.code, positions)
    assert word.shape == (361, 3)
    expected = vanishing_word(f343.code, positions)
    assert word.tolist() == [list(v.coeffs) for v in expected]
    assert sum(1 for v in expected if v) == 323


def test_extension_field_dual_code(f343):
    code = f343.code
    dual = dual_code(code)
    assert (dual.n, dual.k_dim) == (361, 323)
    zero = code.field.zero()
    # a full 323 x 38 check costs millions of FieldElement products
    gen = elements(code)
    for drow in elements(dual)[:3]:
        for row in gen:
            acc = zero
            for a, b in zip(row, drow):
                acc = acc + a * b
            assert acc == zero


def test_extension_field_matrix_with_infinity_inside_the_point_list(f343):
    pts = list(f343.iso.points)
    assert pts[0].is_infinity
    order = [1, 2, 3, 0] + list(range(4, len(pts)))
    code = build_code(f343.curve, f343.divisor, [pts[i] for i in order])
    assert code.coefficients().tolist() == f343.code.coefficients()[:, order].tolist()
    assert [row[3] for row in code.coefficients().tolist()] == [[1, 0, 0]] + [[0, 0, 0]] * 37


def test_extension_field_build_rejects_a_point_on_the_pole(f343):
    from nmdscodes.elliptic_curve import Point

    fake = Point(f343.divisor.x_base, f343.code.field.zero())
    with pytest.raises(HypothesisError, match="hits the pole"):
        build_code(f343.curve, f343.divisor, [fake] + list(f343.iso.points))


@pytest.mark.parametrize("where", ["prime", "extension"])
def test_pole_error_names_the_first_point_on_the_pole(where, f343):
    # the vectorized check raises what the per-point inverse loop raised
    from nmdscodes.elliptic_curve import Point

    c = _example() if where == "prime" else f343
    x_pole, spec = c.divisor.x_base, c.curve.field
    first, second = Point(x_pole, spec.one()), Point(x_pole, spec.zero())
    pts = list(c.iso.points)
    with pytest.raises(HypothesisError) as exc:
        build_code(c.curve, c.divisor, pts[:3] + [first] + pts[3:] + [second])
    assert str(exc.value) == f"point {first.encode()} hits the pole x = {x_pole.encode()}"


# (curve q, field of the stray point): coefficients past 42 that a
# reduction mod 43 would fold in, coefficients all below 43 in a field of
# the same degree, and a point of a smaller degree
STRAY_FIELDS = [(43, FieldSpec(3541)), (43, FieldSpec(47)), (343, FieldSpec(7))]


@pytest.mark.parametrize("q, stray_field", STRAY_FIELDS, ids=["3541-on-43", "47-on-43", "7-on-343"])
def test_build_rejects_a_point_of_another_field(q, stray_field, f343):
    from nmdscodes.elliptic_curve import Point

    c = f343 if q == 343 else construct(43, 7, 7)
    stray = Point(stray_field(1000 % stray_field.p), stray_field(5))
    pts = list(c.iso.points)
    with pytest.raises(HypothesisError) as exc:
        build_code(c.curve, c.divisor, pts[:4] + [stray] + pts[5:])
    assert str(exc.value) == f"point {stray.encode()} is not on {c.curve.encode()}"


def test_certificate_and_evaluator_make_no_field_element_arithmetic(monkeypatch, f343):
    # the certificate walks on coefficient tuples with inverses from the
    # inverse table (built here afresh) and adds the table on arrays;
    # build_code evaluates on arrays: neither makes FieldElement arithmetic
    from nmdscodes.elliptic_curve import point_group_isomorphism
    from nmdscodes.finite_field import FieldElement
    from nmdscodes.linalg import inverse_table

    def banned(*args):
        raise AssertionError("FieldElement arithmetic")

    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse"):
        monkeypatch.setattr(FieldElement, op, banned)
    points = list(f343.iso.points)
    inverse_table.cache_clear()
    for given in (points, f343.iso.points):
        assert point_group_isomorphism(f343.curve, given) == f343.iso
    code = build_code(f343.curve, f343.divisor, points)
    assert np.array_equal(code.matrix, f343.code.matrix)


def test_catalog_row_builds_no_group_element_per_point(monkeypatch):
    # the q = 3541 row runs on integer arrays: Points and FieldElements are
    # made only in the certificate's two generator walks (at most p - 1
    # additions each), no GroupElement per point, and the Point-keyed dict
    # is never built
    from nmdscodes.elliptic_curve import Point
    from nmdscodes.finite_field import FieldElement
    from nmdscodes.param_search import build_table_row
    from nmdscodes.subset_designs import GroupElement

    made = {Point: 0, FieldElement: 0, GroupElement: 0}
    for cls in made:
        init = cls.__init__

        def counted(self, *args, _cls=cls, _init=init, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    p = 59
    row = build_table_row(3541, p)
    assert (row["n"], row["dmin"]) == (p * p, p * p - 2 * p)
    assert made[Point] <= 4 * p and made[FieldElement] <= 32 * p and made[GroupElement] <= 2, made
    c = construct(3541, p, p)
    assert "dmin" not in c.__dict__


def test_reading_a_point_set_makes_one_field_element_per_coordinate(monkeypatch):
    # list(points) shares one FieldElement among the points with the same
    # coordinate index, where one per coordinate read would make 2 per point
    from nmdscodes.finite_field import FieldElement

    pts = construct(3541, 59, 59).iso.points
    made, init = [], FieldElement.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    listed = list(pts)
    affine = pts.x >= 0
    assert 0 < len(made) <= len(np.unique(np.concatenate([pts.x[affine], pts.y[affine]])))
    assert listed == pts[:] == [pts[i] for i in range(len(pts))]
    assert listed[0].is_infinity and listed[-1] == pts[-1]


@pytest.mark.parametrize("q,p", CATALOG_ROWS + ((343, 19),))
def test_point_set_list_and_shuffled_list_give_the_same_codes_and_matrix(q, p):
    # the certificate and build_code read a PointSet's arrays and convert a
    # list of Points; either way each point gets the same residues and column.
    # The shuffle keeps the points up to the generators in place, since the
    # generators are the first that pass in list order
    from nmdscodes.elliptic_curve import point_group_isomorphism

    c = construct(q, p, p)
    listed = list(c.iso.points)
    fixed = max(listed.index(g) for g in c.iso.generators) + 1
    tail = fixed + np.random.default_rng(q).permutation(len(listed) - fixed)
    order = np.concatenate((np.arange(fixed), tail))
    for given, perm in ((listed, np.arange(len(listed))), ([listed[i] for i in order], order)):
        iso = point_group_isomorphism(c.curve, given)
        assert iso == point_group_isomorphism(c.curve, iso.points)
        assert (iso.group, iso.generators) == (c.iso.group, c.iso.generators)
        assert np.array_equal(iso.residues, c.iso.residues[perm])
        code = build_code(c.curve, c.divisor, given)
        assert np.array_equal(code.coefficients(), c.code.coefficients()[:, perm])
    assert point_group_isomorphism(c.curve, listed) == c.iso


def test_name_table_encodes_like_a_join_per_entry(f343):
    # one name per field element against the per-entry join it replaced
    for code in (f343.code, construct(43, 7, 7).code, _example().code):
        by_entry = [[",".join(map(str, c)) for c in row] for row in code.coefficients().tolist()]
        if code.field.degree > 1:
            assert code.gen_rows_json() == by_entry
        assert code.text_grid() == "\n".join(" ".join(row) for row in by_entry)


def test_vanishing_codeword_reuses_the_residues_of_build_code(monkeypatch, f343):
    # a build_code result is read as stored: the witness word, the rows
    # and a codeword sweep make no regular_matrix call
    from nmdscodes import code_analysis, code_builder, linalg
    from nmdscodes.code_analysis import weight_distribution_bruteforce, zero_sum_witness_positions
    from nmdscodes.code_builder import LinearCode

    cases = [
        (c, zero_sum_witness_positions(c.iso.group, c.iso.residues, k))
        for c, k in ((construct(43, 7, 7), 7), (f343, 19))
    ]
    small = construct(7, 3, 3).code
    calls = []
    original = linalg.regular_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (linalg, code_builder, code_analysis):
        monkeypatch.setattr(module, "regular_matrix", counted, raising=False)
    words = [codeword_vanishing_on(c.code, positions) for c, positions in cases]
    assert len(cases[0][0].code.gen_rows_json()) == 14
    assert len(f343.code.gen_rows_json()) == 38
    weight_distribution_bruteforce(small)
    assert calls == []
    monkeypatch.undo()
    for (c, positions), word in zip(cases, words):
        code = c.code
        assert np.count_nonzero(word.any(axis=1)) == code.n - code.k_dim
        assert not code.matrix.flags.writeable
        # a code built by hand from the same coefficients gives the same word
        by_hand = LinearCode(
            field=code.field,
            n=code.n,
            k_dim=code.k_dim,
            matrix=linalg.regular_matrix(code.coefficients(), code.field),
        )
        assert np.array_equal(by_hand.matrix, code.matrix)
        assert np.array_equal(codeword_vanishing_on(by_hand, positions), word)


def test_rank_certificate_falls_back_past_a_singular_leading_block():
    f7, f49 = FieldSpec(7), FieldSpec(7, 2)
    # leading 2 x 2 block singular (column 1 is twice column 0): its kernel
    # is one direction, whose codeword is nonzero on column 2
    word = _certify_rank(np.array([[1, 2, 0, 5], [2, 4, 1, 0]]), f7, (0, 1))
    assert word.shape == (4, 1) and word[2:].all() and not word[:2].any()
    with pytest.raises(CertificationError, match="rank deficient"):
        _certify_rank(np.array([[1, 2, 3, 4], [2, 4, 6, 1]]), f7, (0, 1))
    # over F_49: the leading 2 x 2 block has a zero column
    coeffs = np.zeros((2, 3, 2), dtype=np.int64)
    coeffs[0, 0], coeffs[1, 0], coeffs[1, 2] = (1, 0), (3, 5), (0, 1)
    word = _certify_rank(regular_matrix(coeffs, f49), f49, (0, 1))
    assert word.shape == (3, 2) and word[2].any() and not word[:2].any()
    coeffs[1, 2] = (0, 0)
    with pytest.raises(CertificationError, match="rank deficient"):
        _certify_rank(regular_matrix(coeffs, f49), f49, (0, 1))


def test_rank_certificate_takes_the_full_rank_only_past_a_one_dimensional_kernel(monkeypatch):
    # a nonsingular block and a one-dimensional kernel decide without
    # rank; a kernel of dimension >= 2 falls back to the full rank, which
    # decides either way
    from nmdscodes import code_builder

    calls = []
    monkeypatch.setattr(code_builder, "rank", lambda *args: calls.append(1) or rank(*args))
    f7, f49 = FieldSpec(7), FieldSpec(7, 2)
    full = np.array([[1, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    assert _certify_rank(full, f7, (3, 4, 0)) is None
    assert _certify_rank(full, f7, (0, 1, 3)).ravel().tolist() == [0, 0, 0, 0, 1]
    assert calls == []
    assert _certify_rank(full, f7, (0, 1, 2)) is None  # columns all e0: kernel of dimension 2
    assert calls == [1]
    deficient = np.array([[1, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 2, 0]])
    with pytest.raises(CertificationError, match="rank deficient"):
        _certify_rank(deficient, f7, (0, 1, 2))
    assert calls == [1, 1]
    wide = regular_matrix(np.stack([full, 3 * full], axis=-1) % 7, f49)
    assert _certify_rank(wide, f49, (0, 1, 2)) is None
    assert calls == [1, 1, 1]


@pytest.mark.parametrize("q,p", ((7, 3), (43, 7), (343, 19)))
def test_a_repeated_generator_row_fails_the_certificate_on_any_columns(q, p):
    c = construct(q, p, p)
    coeffs = c.code.coefficients().copy()
    coeffs[-1] = coeffs[-2]
    mat = regular_matrix(coeffs, c.code.field)
    witness = c.code.certificate[0]
    for columns in (witness, tuple(range(2 * p))):
        with pytest.raises(CertificationError, match="rank deficient"):
            _certify_rank(mat, c.code.field, columns)


@pytest.mark.parametrize("q,p", CATALOG_ROWS + ((343, 19),))
def test_rank_certificate_agrees_with_the_full_rank_on_the_catalog(q, p):
    # construct certifies on the zero-sum witness and keeps its word; a
    # direct build_code certifies on the leading columns, a nonsingular block
    from nmdscodes.code_analysis import zero_sum_witness_positions

    c = construct(q, p, p)
    code = c.code
    witness, word = code.certificate
    assert witness == zero_sum_witness_positions(c.iso.group, c.iso.residues, p)
    assert rank(code.matrix, code.field) == code.k_dim
    assert np.array_equal(word, codeword_vanishing_on(code, witness))
    assert np.count_nonzero(word.any(axis=1)) == code.n - code.k_dim == c.dmin
    lead = code.matrix[:, : len(code.matrix)]
    assert rank(lead, code.field) == code.k_dim
    direct = build_code(c.curve, c.divisor, c.iso.points)
    assert np.array_equal(direct.matrix, code.matrix)
    assert direct.certificate == (tuple(range(code.k_dim)), None)


def test_one_elimination_per_construction(monkeypatch):
    # build_code's rank certificate on the witness columns is the only
    # elimination of a matrix with 2k m columns: dmin reads its word.
    # Berlekamp's m x m matrices are told apart by their shape
    from nmdscodes import finite_field, linalg
    from nmdscodes.param_search import build_table_row

    shapes = []
    original = linalg.reduce_mod_p

    def counted(mat, p):
        shapes.append(np.shape(mat))
        return original(mat, p)

    for module in (linalg, finite_field):
        monkeypatch.setattr(module, "reduce_mod_p", counted)
    assert build_table_row(3541, 59)["dmin"] == 3481 - 118
    assert [s for s in shapes if s[1] == 118] == [(118, 118)]
    shapes.clear()
    assert construct(343, 19, 19).dmin == 323
    assert [s for s in shapes if s[1] == 38 * 3] == [(114, 114)]
