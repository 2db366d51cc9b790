import random
import time
from math import gcd

import numpy as np
import pytest

from field_reference import (
    add_points,
    multiply,
    negate,
    points_by_root_dict,
    points_on_residues,
)
from nmdscodes import cli, elliptic_curve, linalg, param_search
from nmdscodes.elliptic_curve import (
    _chord_sums,
    _table_keys,
    Curve,
    Point,
    PointSet,
    find_trace_zero_point,
    point_group_isomorphism,
)
from nmdscodes.errors import CertificationError, HypothesisError
from nmdscodes.finite_field import FieldSpec, frobenius, is_square, quadratic_extension, sqrt
from nmdscodes.numtheory import divisors, factorize
from nmdscodes.subset_designs import AbelianGroup


def _nine_point_curve():
    return Curve.from_coefficients(FieldSpec(7), 0, 2)


def _labels(iso):
    """The certificate's labels as a Point-keyed dict of GroupElements."""
    return {pt: iso.group.element(row) for pt, row in zip(iso.points, iso.residues.tolist())}


def _group(n1, n2):
    """Z_n1 + Z_n2 in invariant-factor form: Z_n2 alone when n1 = 1."""
    return AbelianGroup(tuple(f for f in (n1, n2) if f > 1))


# -- references: the torsion-count structure and the two-pass map that the
# single table certificate replaced --------------------------------------


def point_order(curve, pt, group_order):
    """Exact order of pt given the group order (divisor refinement)."""
    order = group_order
    for p, e in factorize(group_order).items():
        order //= p**e
        probe = multiply(curve, order, pt)
        while not probe.is_infinity:
            probe = multiply(curve, p, probe)
            order *= p
    return order


def _group_structure_by_torsion(curve, points):
    """(n1, n2) for the largest candidate n1 whose n1-torsion has exactly
    n1^2 points."""
    n = len(points)
    q = curve.field.order
    candidates = [
        d for d in divisors(gcd(n, q - 1)) if d * d <= n and n % (d * d) == 0
    ]
    for n1 in sorted(candidates, reverse=True):
        tor = sum(1 for pt in points if multiply(curve, n1, pt).is_infinity)
        if tor == n1 * n1:
            return n1, n // n1
    raise AssertionError("no split")


def _two_pass_isomorphism(curve, points, structure):
    """(group, generators, table): g2 the first point of order n2, g1 the
    first point of order n1 whose table [a]g1 + [b]g2 is all distinct."""
    n = len(points)
    n1, n2 = structure
    if n1 == 1:
        group = AbelianGroup((n2,))
        gen = next(pt for pt in points if point_order(curve, pt, n) == n2)
        table = {}
        acc = Point.infinity()
        for a in range(n2):
            table[acc] = group.element((a,))
            acc = curve.add(acc, gen)
        return group, (gen,), table
    group = AbelianGroup((n1, n2))
    g2 = next(pt for pt in points if point_order(curve, pt, n) == n2)
    for cand in points:
        if cand.is_infinity or point_order(curve, cand, n) != n1:
            continue
        table = {}
        ok = True
        row_start = Point.infinity()
        for a in range(n1):
            acc = row_start
            for b in range(n2):
                if acc in table:
                    ok = False
                    break
                table[acc] = group.element((a, b))
                acc = curve.add(acc, g2)
            if not ok:
                break
            row_start = curve.add(row_start, cand)
        if ok and len(table) == n:
            return group, (cand, g2), table
    raise AssertionError("no generator pair")


def _nonsingular_curves(q):
    f = FieldSpec(q)
    for a4 in range(q):
        for b in range(q):
            if (4 * a4**3 + 27 * b * b) % q:
                yield Curve.from_coefficients(f, a4, b)


def test_singular_curve_rejected():
    with pytest.raises(HypothesisError):
        Curve.from_coefficients(FieldSpec(7), 0, 0)


def test_point_count_and_membership():
    curve = _nine_point_curve()
    pts = curve.points()
    assert len(pts) == 9
    assert pts[0].is_infinity
    for pt in pts:
        assert curve.contains(pt)


def test_group_law_axioms_random():
    curve = _nine_point_curve()
    pts = curve.points()
    rng = random.Random(3)
    inf = Point.infinity()
    for _ in range(60):
        a, b, c = (pts[rng.randrange(len(pts))] for _ in range(3))
        assert curve.add(a, b) == curve.add(b, a)
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))
        assert curve.add(a, negate(a)) == inf
        assert curve.add(a, inf) == a


def test_scalar_multiplication():
    curve = _nine_point_curve()
    pts = curve.points()
    for pt in pts:
        assert multiply(curve, 9, pt).is_infinity
        assert multiply(curve, 0, pt).is_infinity
        acc = Point.infinity()
        for n in range(1, 5):
            acc = curve.add(acc, pt)
            assert multiply(curve, n, pt) == acc
        assert multiply(curve, -2, pt) == negate(multiply(curve, 2, pt))


def test_group_structure_split():
    curve = _nine_point_curve()
    assert curve.group_structure(curve.points()).encode() == "3x3"
    # y^2 = x^3 + 1 over F_7 has 12 points and a cyclic factor of order 6
    curve12 = Curve.from_coefficients(FieldSpec(7), 0, 1)
    pts = curve12.points()
    assert len(pts) == 12
    structure = curve12.group_structure(pts)
    assert structure.order == 12


def test_point_orders_divide_group_order():
    curve = _nine_point_curve()
    pts = curve.points()
    for pt in pts:
        o = point_order(curve, pt, 9)
        assert 9 % o == 0
        assert multiply(curve, o, pt).is_infinity
        if o > 1:
            assert not multiply(curve, o // 3 if o == 9 else 1, pt).is_infinity or o == 1


def test_point_group_isomorphism_is_bijective_homomorphism():
    curve = _nine_point_curve()
    pts = curve.points()
    iso = point_group_isomorphism(curve, pts)
    assert iso.group.encode() == "3x3"
    label = _labels(iso)
    images = {label[pt] for pt in pts}
    assert len(images) == 9
    rng = random.Random(4)
    for _ in range(40):
        a, b = pts[rng.randrange(9)], pts[rng.randrange(9)]
        assert label[curve.add(a, b)] == label[a] + label[b]


def test_base_change_and_frobenius():
    base = FieldSpec(7)
    curve = _nine_point_curve()
    ext = quadratic_extension(base)
    big = curve.change_field(ext)
    pts = big.points()
    assert len(pts) == 63  # trace -1 over F_7 gives 49 + 1 + 13 points
    assert pts[0].is_infinity
    for pt in pts[:12]:
        img = pt if pt.is_infinity else Point(frobenius(pt.x, 7), frobenius(pt.y, 7))
        assert big.contains(img)


def test_trace_zero_points_match_catalog():
    # (q, b, expected x_Q)
    rows = [(7, 2, 1), (13, 3, 2), (31, 11, 0), (43, 3, 0)]
    for q, b, x_expected in rows:
        base = FieldSpec(q)
        curve = Curve.from_coefficients(base, 0, b)
        ext = quadratic_extension(base)
        q_point, x_base = find_trace_zero_point(curve, ext)
        assert x_base.coeffs == (x_expected,)
        big = curve.change_field(ext)
        conj = Point(frobenius(q_point.x, q), frobenius(q_point.y, q))
        assert big.add(q_point, conj).is_infinity
        assert q_point != conj


def test_trace_zero_point_conjugates_differ_in_y_only():
    base = FieldSpec(7)
    curve = _nine_point_curve()
    ext = quadratic_extension(base)
    q_point, x_base = find_trace_zero_point(curve, ext)
    assert curve.change_field(ext).contains(q_point)
    conj = Point(frobenius(q_point.x, 7), frobenius(q_point.y, 7))
    assert q_point.x == conj.x
    assert q_point.y == -conj.y


def test_point_encoding():
    curve = _nine_point_curve()
    pts = curve.points()
    assert pts[0].encode() == "inf"
    finite = [pt for pt in pts if not pt.is_infinity]
    assert all(";" in pt.encode() for pt in finite)


def test_off_curve_points_are_rejected_at_every_entry():
    curve = _nine_point_curve()
    pts = curve.points()
    off = Point(FieldSpec(7)(0), FieldSpec(7)(1))  # 1 != 0^3 + 2
    assert not curve.contains(off)
    on = pts[1]
    with pytest.raises(HypothesisError):
        curve.add(off, on)
    with pytest.raises(HypothesisError):
        curve.add(on, off)
    # the off-curve point replaces the last point, so the checks must
    # reach the end of the list
    bad = pts[:-1] + [off]
    with pytest.raises(HypothesisError):
        curve.group_structure(bad)
    with pytest.raises(HypothesisError):
        point_group_isomorphism(curve, bad)


def _assert_matches_reference(curve, pts):
    iso = point_group_isomorphism(curve, pts)
    structure = _group_structure_by_torsion(curve, pts)
    group, gens, table = _two_pass_isomorphism(curve, pts, structure)
    assert iso.group == _group(*structure) == group
    assert curve.group_structure(pts) == group
    assert iso.generators == gens
    assert _labels(iso) == table
    return iso.group


def test_table_certificate_matches_torsion_count_and_two_pass_map():
    start = time.perf_counter()
    seen = set()
    for q in (7, 11, 13, 17):
        for curve in _nonsingular_curves(q):
            seen.add(_assert_matches_reference(curve, curve.points()).encode())
    # cyclic groups and split groups of both shapes are covered
    assert {"9", "2x2", "2x4", "2x8", "2x12", "3x3", "3x6", "4x4"} <= seen
    f343 = FieldSpec(7, 3)
    catalog = Curve.from_coefficients(f343, 0, f343((0, 1, 5)))
    assert _assert_matches_reference(catalog, catalog.points()).encode() == "19x19"
    assert time.perf_counter() - start < 20


def test_cyclic_nine_is_not_split():
    # y^2 = x^3 + 3x + 2 over F_7: nine points, a point of order 9
    curve = Curve.from_coefficients(FieldSpec(7), 3, 2)
    pts = curve.points()
    iso = point_group_isomorphism(curve, pts)
    assert iso.group == AbelianGroup((9,))
    assert iso.group.encode() == "9"
    assert len(iso.generators) == 1
    assert point_order(curve, iso.generators[0], 9) == 9
    assert curve.group_structure(pts).encode() == "9"


def test_point_group_isomorphism_rejects_a_list_that_is_not_the_group():
    curve = _nine_point_curve()
    pts = curve.points()
    with pytest.raises(CertificationError, match="does not list"):
        point_group_isomorphism(curve, pts[:-1] + [pts[1]])
    with pytest.raises(CertificationError, match="Hasse"):
        point_group_isomorphism(curve, pts[:1])


# -- references: FieldElement point enumeration and the Point-keyed
# certificate that the residue paths replaced --------------------------


def _points_by_field_elements(curve):
    """One rhs, is_square and sqrt per x, then a sort by (x, y)."""
    pts = [Point.infinity()]
    for x in curve.field.elements():
        v = curve.rhs(x)
        if not v:
            pts.append(Point(x, curve.field.zero()))
        elif is_square(v):
            y = sqrt(v)
            pts.append(Point(x, y))
            pts.append(Point(x, -y))
    pts[1:] = sorted(pts[1:], key=lambda P: (P.x.coeffs, P.y.coeffs))
    return pts


def _point_multiples(curve, pt, n):
    walk = [Point.infinity()]
    acc = pt
    while not acc.is_infinity and len(walk) < n:
        walk.append(acc)
        acc = curve._add(acc, pt)
    return walk if acc.is_infinity and len(walk) == n else None


def _point_keyed_isomorphism(curve, points):
    """(group, generators, Point-keyed map) of the table certificate,
    with every walk and table entry in FieldElement arithmetic on Points."""
    for pt in points:
        curve._require(pt)
    n = len(points)
    q = curve.field.order
    if (n - q - 1) ** 2 > 4 * q:
        raise CertificationError("Hasse")
    candidates = [d for d in divisors(gcd(n, q - 1)) if n % (d * d) == 0]
    for n1 in sorted(candidates, reverse=True):
        n2 = n // n1
        g2 = next((g for g in points if _point_multiples(curve, g, n2)), None)
        if g2 is None:
            continue
        span = set(_point_multiples(curve, g2, n2))
        for g1 in points:
            row_starts = _point_multiples(curve, g1, n1)
            if row_starts is not None and span.isdisjoint(row_starts[1:]):
                break
        else:
            continue
        group = _group(n1, n2)
        rank = len(group.factors)
        table = {}
        for a, acc in enumerate(row_starts):
            for b in range(n2):
                table[acc] = group.element((a, b)[2 - rank :])
                acc = curve._add(acc, g2)
        to_element = {pt: table[pt] for pt in points if pt in table}
        if len(to_element) != n:
            raise CertificationError("does not list")
        return group, (g1, g2)[2 - rank :], to_element
    raise CertificationError("no split")


# (q, b) of y^2 = x^3 + b for the six prime-field catalog rows
CATALOG_CURVES = ((7, 2), (13, 3), (43, 3), (157, 15), (307, 14), (3541, 7))


def _catalog_343():
    f343 = FieldSpec(7, 3)
    return Curve.from_coefficients(f343, 0, f343((0, 1, 5)))


def test_root_table_points_match_field_element_enumeration():
    # against the sqrt enumeration and both paths the root table replaced:
    # residues over prime fields, a dict of roots over any field
    for q in (7, 11, 13):
        for curve in _nonsingular_curves(q):
            pts = list(curve.points())
            assert pts == _points_by_field_elements(curve)
            assert pts == points_on_residues(curve) == points_by_root_dict(curve)
    for q, b in CATALOG_CURVES:
        curve = Curve.from_coefficients(FieldSpec(q), 0, b)
        assert list(curve.points()) == _points_by_field_elements(curve)
        assert list(curve.points()) == points_on_residues(curve)
    seen = 0
    for spec, a4_count in ((FieldSpec(5, 2), 25), (FieldSpec(7, 2), 3),
                           (FieldSpec(11, 2), 2), (FieldSpec(5, 3), 2)):
        for curve in _curves_over(spec, a4_count):
            assert list(curve.points()) == points_by_root_dict(curve)
            seen += 1
    assert seen > 900
    curve = _catalog_343()
    pts = list(curve.points())
    assert len(pts) == 361
    assert pts == _points_by_field_elements(curve) == points_by_root_dict(curve)


def _curves_over(spec, a4_count):
    """Nonsingular curves over spec with a4 among the first a4_count
    elements and every b."""
    elements = list(spec.elements())
    for a4 in elements[:a4_count]:
        for b in elements:
            if spec(4) * a4 * a4 * a4 + spec(27) * b * b:
                yield Curve(spec, a4, b)


def test_root_table_points_on_python_ints_match_int64(monkeypatch):
    # primes with (q - 1)^2 >= 2^63 run on Python ints (dtype=object)
    f25 = FieldSpec(5, 2)
    curves = list(_nonsingular_curves(13)) + [
        Curve.from_coefficients(f25, f25((1, 2)), b) for b in range(1, 5)
    ]
    expected = [curve.points() for curve in curves]
    trace_zero = [find_trace_zero_point(c, quadratic_extension(c.field))[0] for c in curves]
    scans = [param_search._scan(q, p, 10**9) for q, p in ((13, 3), (11, 3), (25, 5))]
    linalg.root_table.cache_clear()
    linalg.field_elements.cache_clear()
    monkeypatch.setattr(linalg, "residue_dtype", lambda p: object)
    try:
        assert linalg.field_elements(f25).dtype == object
        assert [curve.points() for curve in curves] == expected
        assert [param_search._scan(q, p, 10**9) for q, p in ((13, 3), (11, 3), (25, 5))] == scans
        assert [
            find_trace_zero_point(c, quadratic_extension(c.field))[0] for c in curves
        ] == trace_zero
    finally:
        linalg.root_table.cache_clear()
        linalg.field_elements.cache_clear()


def test_residue_law_certificate_matches_point_keyed_certificate():
    for q in (7, 11, 13):
        for curve in _nonsingular_curves(q):
            pts = curve.points()
            iso = point_group_isomorphism(curve, pts)
            ref = _point_keyed_isomorphism(curve, pts)
            assert (iso.group, iso.generators, _labels(iso)) == ref
            assert all(g in pts for g in iso.generators)


def test_residues_label_every_point_once_and_are_read_only():
    curves = [c for q in (7, 11, 13) for c in _nonsingular_curves(q)]
    catalog = [Curve.from_coefficients(FieldSpec(q), 0, b) for q, b in ((43, 3), (157, 15))]
    seen = set()
    for curve in curves + catalog + [_catalog_343()]:
        pts = curve.points()
        iso = point_group_isomorphism(curve, pts)
        assert iso.points == pts
        assert iso.residues.shape == (len(pts), len(iso.group.factors))
        assert not iso.residues.flags.writeable
        # the residues follow from the rest, so == and hash skip the array
        again = point_group_isomorphism(curve, pts)
        assert again == iso and hash(again) == hash(iso)
        assert sorted(map(tuple, iso.residues.tolist())) == [
            tuple(r) for r in iso.group.residues().tolist()
        ]
        seen.add(len(iso.group.factors))
    assert seen == {1, 2}
    for curve in catalog + [_catalog_343()]:
        pts = curve.points()
        iso = point_group_isomorphism(curve, pts)
        assert (iso.group, iso.generators, _labels(iso)) == _point_keyed_isomorphism(curve, pts)


def test_residue_law_rejects_foreign_and_off_curve_points_at_the_end():
    curve = Curve.from_coefficients(FieldSpec(43), 0, 3)
    pts = curve.points()
    x, y = pts[-1].x.coeffs[0], pts[-1].y.coeffs[0]
    f11 = FieldSpec(11)
    foreign = Point(f11(x), f11(y))
    off = Point(pts[-1].x, FieldSpec(43)(y + 1))
    assert not curve.contains(off)
    for bad in (foreign, off):
        with pytest.raises(HypothesisError, match="is not on"):
            point_group_isomorphism(curve, pts[:-1] + [bad])


def _first_nonsquare_x(curve):
    """The x that find_trace_zero_point took before the root table: one
    is_square power per x in canonical order."""
    for x in curve.field.elements():
        v = curve.rhs(x)
        if v and not is_square(v):
            return x
    return None


def test_trace_zero_x_matches_the_is_square_scan():
    f25 = FieldSpec(5, 2)
    curves = list(_nonsingular_curves(7)) + list(_nonsingular_curves(11))
    curves += [Curve.from_coefficients(FieldSpec(q), 0, b) for q, b in CATALOG_CURVES]
    curves += list(_curves_over(f25, 3)) + [_catalog_343()]
    for curve in curves:
        ext = quadratic_extension(curve.field)
        x = _first_nonsquare_x(curve)
        if x is None:
            with pytest.raises(CertificationError, match="no trace-zero point"):
                find_trace_zero_point(curve, ext)
            continue
        q_point, x_base = find_trace_zero_point(curve, ext)
        assert x_base == x
        assert q_point.x == ext.embed(x)
        assert q_point.y == sqrt(ext.embed(curve.rhs(x)))


# each fault makes one check of find_trace_zero_point fail: a y that is no
# square root of the right-hand side, and a Frobenius that fixes y != 0
TRACE_ZERO_FAULTS = {
    "sqrt": (lambda a: a, "lifted point fails the curve equation"),
    "_ff_frobenius": (
        lambda a, q: a, "trace-zero construction failed: Q + frob(Q) != infinity"
    ),
}


@pytest.mark.parametrize("name", TRACE_ZERO_FAULTS)
def test_a_faulty_trace_zero_point_is_refused(name, monkeypatch, capsys):
    fault, message = TRACE_ZERO_FAULTS[name]
    monkeypatch.setattr(elliptic_curve, name, fault)
    with pytest.raises(CertificationError) as exc:
        find_trace_zero_point(_nine_point_curve(), quadratic_extension(FieldSpec(7)))
    assert str(exc.value) == message
    assert cli.main(["build", "--q", "7", "--p", "3", "--k", "3"]) == 4
    assert capsys.readouterr() == ("", f"error: certification mismatch: {message}\n")


# -- the batched chord sums and the certificate against Curve._add and the
# point-keyed certificate, over extension fields -----------------------


def _log_law_curves(spec):
    """A curve with b = 0 and one with a4 and b both nonzero."""
    e = list(spec.elements())
    return [Curve(spec, e[1], e[0]), Curve(spec, e[2], e[spec.order // 2])]


LOG_LAW_FIELDS = [FieldSpec(5, 2), FieldSpec(7, 2), FieldSpec(11, 2), FieldSpec(5, 3)]


def _assert_chord_sums_match(curve, pairs):
    """_chord_sums of the pairs with distinct x, as one batch, against
    Curve._add pair by pair; returns how many pairs were compared."""
    pairs = [(p1, p2) for p1, p2 in pairs if not p1.is_infinity and not p2.is_infinity]
    pairs = [(p1, p2) for p1, p2 in pairs if p1.x != p2.x]
    _, x1, y1 = curve._point_set([p1 for p1, _ in pairs])[0].coordinates()
    _, x2, y2 = curve._point_set([p2 for _, p2 in pairs])[0].coordinates()
    x3, y3 = _chord_sums(x1, y1, x2, y2, curve.field)
    sums = [curve._add(p1, p2) for p1, p2 in pairs]
    assert x3.tolist() == [list(pt.x.coeffs) for pt in sums]
    assert y3.tolist() == [list(pt.y.coeffs) for pt in sums]
    return len(pairs)


# (field, curve): b = 0 puts the point (0, 0), with two zero coordinates,
# on the curve; the other curve has a4 and b nonzero
EVERY_PAIR_CASES = [(spec, i) for spec in LOG_LAW_FIELDS[:2] for i in (0, 1)]
EVERY_PAIR_CASES += [(LOG_LAW_FIELDS[2], 1), (LOG_LAW_FIELDS[3], 0)]


@pytest.mark.parametrize(
    "spec, which", EVERY_PAIR_CASES, ids=[f"{s.encode()}-{i}" for s, i in EVERY_PAIR_CASES]
)
def test_chord_sums_add_every_pair_like_curve_add(spec, which):
    curve = _log_law_curves(spec)[which]
    pts = curve.points()
    assert (Point(spec.zero(), spec.zero()) in pts) == (which == 0)
    assert _assert_chord_sums_match(curve, [(p1, p2) for p1 in pts for p2 in pts]) > 0


def test_chord_sums_add_every_pair_over_small_prime_fields_like_curve_add():
    for q in (7, 11, 13):
        for curve in _nonsingular_curves(q):
            pts = curve.points()
            _assert_chord_sums_match(curve, [(p1, p2) for p1 in pts for p2 in pts])


def test_chord_sums_add_a_sample_over_f343_like_curve_add():
    curve = _catalog_343()
    pts = curve.points()
    rng = random.Random(343)
    pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(2000)]
    assert _assert_chord_sums_match(curve, pairs) > 1900


def test_certificate_is_the_point_keyed_map_over_extension_fields():
    curves = [c for spec in LOG_LAW_FIELDS for c in _log_law_curves(spec)] + [_catalog_343()]
    for curve in curves:
        pts = curve.points()
        iso = point_group_isomorphism(curve, pts)
        ref = _point_keyed_isomorphism(curve, pts)
        assert (iso.group, iso.generators, _labels(iso)) == ref
    assert iso.group.encode() == "19x19"


# (spec, a4, b, group): a prime field, degree 2 and degree 3; cyclic groups,
# the Z_9 that must not pass as 3x3, and b = 0 curves whose first affine
# point (0, 0) has order 2, so its tangent goes to infinity on the first
# step of a walk
TABLE_WALK_CASES = [
    (FieldSpec(7), (0,), (2,), "3x3"),
    (FieldSpec(7), (3,), (2,), "9"),
    (FieldSpec(7), (1,), (0,), "8"),
    (FieldSpec(7), (3,), (0,), "2x4"),
    (FieldSpec(5, 2), (0, 1), (0, 0), "4x8"),
    (FieldSpec(7, 2), (0, 0), (0, 2), "3x21"),
    (FieldSpec(7, 2), (0, 1), (0, 2), "49"),
    (FieldSpec(5, 3), (0, 0, 1), (0, 0, 0), "2x74"),
    (FieldSpec(5, 3), (0, 0, 0), (0, 0, 1), "126"),
    (FieldSpec(7, 3), (0, 0, 0), (0, 1, 5), "19x19"),
]


@pytest.mark.parametrize(
    "spec, a4, b, group", TABLE_WALK_CASES,
    ids=[f"{spec.encode()}-{group}" for spec, _, _, group in TABLE_WALK_CASES],
)
def test_table_walk_certificate_is_the_point_walk_reference(monkeypatch, spec, a4, b, group):
    # walks on coefficient tuples with inverses from the inverse table,
    # against _point_multiples on Points in the FieldElement law
    curve = Curve(spec, spec(a4), spec(b))
    pts = curve.points()
    iso = point_group_isomorphism(curve, pts)
    assert iso.group.encode() == group
    assert any(b) or pts[1] == Point(spec.zero(), spec.zero())
    monkeypatch.setattr(Curve, "_add", add_points)
    assert (iso.group, iso.generators, _labels(iso)) == _point_keyed_isomorphism(curve, pts)


def test_curve_add_is_the_field_element_law():
    # the coefficient-tuple law under a^(q-2) inverses: every pair over
    # the small fields, a sample over F_125
    curves = list(_nonsingular_curves(7))
    curves += [c for spec in LOG_LAW_FIELDS[:2] for c in _log_law_curves(spec)]
    pairs = [(c, p1, p2) for c in curves for pts in [c.points()] for p1 in pts for p2 in pts]
    curve = _log_law_curves(LOG_LAW_FIELDS[3])[0]
    pts, rng = curve.points(), random.Random(125)
    pairs += [(curve, rng.choice(pts), rng.choice(pts)) for _ in range(2000)]
    for c, p1, p2 in pairs:
        assert c._add(p1, p2) == add_points(c, p1, p2)


def test_a_doubling_in_the_table_is_refused():
    # [a]g1 = -[b]g2 cannot pass the avoidance test; if walks ever gave
    # one, the chord would have no slope
    curve = _nine_point_curve()
    pt = curve.points()[1]
    walk = [[[pt.x.coeffs, pt.y.coeffs]], [[pt.x.coeffs, negate(pt).y.coeffs]]]
    with pytest.raises(CertificationError, match="^a discrete-log table entry of .* is a doubling$"):
        _table_keys(curve, *(np.array(w) for w in walk))


def _bad_points(curve):
    """A point off the curve and one of another field of the same degree."""
    last = curve.points()[-1]
    off = Point(last.x, last.y + curve.field.one())
    other = FieldSpec(5, 3) if curve.field.degree == 3 else FieldSpec(47)
    return off, Point(other(last.x.coeffs), other(last.y.coeffs))


def test_certificate_keeps_the_off_curve_and_wrong_field_messages():
    curve = _catalog_343()
    pts = curve.points()
    for bad in _bad_points(curve):
        with pytest.raises(HypothesisError) as exc:
            point_group_isomorphism(curve, pts[:-1] + [bad])
        assert str(exc.value) == f"point {bad.encode()} is not on {curve.encode()}"


@pytest.mark.parametrize("q", [43, 343])
@pytest.mark.parametrize("off_first", [True, False], ids=["off-curve-first", "foreign-first"])
def test_certificate_names_the_first_bad_point_in_list_order(q, off_first):
    curve = _catalog_343() if q == 343 else Curve.from_coefficients(FieldSpec(43), 0, 3)
    pts = curve.points()
    off, foreign = _bad_points(curve)
    first, second = (off, foreign) if off_first else (foreign, off)
    assert not curve.contains(off) and not curve.contains(foreign)
    listed = pts[:5] + [first] + pts[6:-5] + [second] + pts[-4:]
    with pytest.raises(HypothesisError) as exc:
        point_group_isomorphism(curve, listed)
    assert str(exc.value) == f"point {first.encode()} is not on {curve.encode()}"


# -- the integer point set against the object-path points -----------------


def test_point_set_materialises_the_object_path_points_on_every_catalog_row():
    from nmdscodes.cli import CATALOG_ROWS

    curves = [param_search.find_curve(q, p).curve for q, p in CATALOG_ROWS]
    for curve in curves + [_catalog_343()]:
        pts = curve.points()
        listed = list(pts)
        assert listed == points_by_root_dict(curve)
        if curve.field.degree == 1:
            assert listed == points_on_residues(curve)
        assert curve._point_set(listed) == (pts, len(pts))


def test_point_set_reads_like_a_list_of_points():
    curve = _catalog_343()
    pts = curve.points()
    listed = list(pts)
    assert pts[5:40:3] == listed[5:40:3] and pts[::-50] == listed[::-50]
    assert isinstance(pts[:2], list) and pts[-1] == listed[-1]
    assert pts.index(listed[7]) == 7 and listed[7] in pts
    with pytest.raises(IndexError):
        pts[len(pts)]
    assert not pts.x.flags.writeable and not pts.y.flags.writeable
    assert pts == curve.points() and hash(pts) == hash(curve.points())
    assert pts != _nine_point_curve().points()
    # a set of another field goes through the checked conversion
    foreign = PointSet(FieldSpec(5, 3), pts.x, pts.y)
    with pytest.raises(HypothesisError, match="is not on"):
        point_group_isomorphism(curve, foreign)
