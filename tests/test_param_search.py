import re
import sys

import pytest

from nmdscodes import elliptic_curve, param_search
from nmdscodes.elliptic_curve import Curve
from nmdscodes.errors import BudgetError, CertificationError, HypothesisError
from nmdscodes.finite_field import FieldSpec
from nmdscodes.param_search import (
    ParameterTriple,
    build_table_row,
    construct,
    find_curve,
    search_parameters,
    triple_conditions,
    verify_curve,
)


def test_triple_conditions_accepts_catalog_rows():
    assert triple_conditions(7, 3) == 1
    assert triple_conditions(13, 3) == -5
    assert triple_conditions(31, 5) == -7
    assert triple_conditions(43, 7) == 5
    assert triple_conditions(343, 19) == 17


def test_triple_conditions_names_the_violated_hypothesis():
    with pytest.raises(HypothesisError, match="prime power"):
        triple_conditions(6, 3)
    with pytest.raises(HypothesisError, match="prime power"):
        triple_conditions(5, 3)
    with pytest.raises(HypothesisError, match="odd prime"):
        triple_conditions(17, 2)
    with pytest.raises(HypothesisError, match="odd prime"):
        triple_conditions(19, 9)
    with pytest.raises(HypothesisError, match="divide"):
        triple_conditions(11, 3)
    with pytest.raises(HypothesisError, match="gcd"):
        triple_conditions(8, 7)
    with pytest.raises(HypothesisError, match="Hasse"):
        triple_conditions(29, 7)


def test_search_small_window():
    assert search_parameters(7) == [
        ParameterTriple(7, 3, 1),
        ParameterTriple(43, 7, 5),
    ]
    assert search_parameters(2) == []


def test_search_with_negative_traces():
    rows = search_parameters(7, require_positive_t=False)
    assert rows == [
        ParameterTriple(7, 3, 1),
        ParameterTriple(13, 3, -5),
        ParameterTriple(31, 5, -7),
        ParameterTriple(43, 7, 5),
    ]


def test_positive_traces_all_sit_at_p_minus_2():
    rows = search_parameters(100)
    assert rows
    for row in rows:
        assert row.t == row.p - 2
        assert row.q == row.p * row.p - row.p + 1
    assert ParameterTriple(343, 19, 17) in rows


def test_triple_helpers():
    trip = ParameterTriple(7, 3, 1)
    assert trip.n == 9
    assert trip.code_parameters() == "[9,2k,9-2k]"
    assert trip.to_json()["code"] == "[9,2k,9-2k]"


def test_find_curve_reproduces_catalog_coefficients():
    for q, p, b in ((7, 3, 2), (13, 3, 3), (31, 5, 11), (43, 7, 3)):
        iso = find_curve(q, p)
        assert iso.curve.a4.coeffs == (0,)
        assert iso.curve.b.coeffs == (b,)
        assert len(iso.points) == p * p
        assert iso.group.encode() == f"{p}x{p}"
        assert iso.group.factors == (p, p)


def test_verify_curve_rejects_wrong_point_count():
    curve = Curve(FieldSpec(7), 0, 1)  # 12 points
    with pytest.raises(HypothesisError, match="12 points"):
        verify_curve(curve, 3)


def test_verify_curve_rejects_cyclic_group():
    curve = Curve(FieldSpec(7), 3, 2)  # 9 points, Z_9
    with pytest.raises(HypothesisError, match="3-torsion"):
        verify_curve(curve, 3)


def test_build_table_row_smallest():
    row = build_table_row(7, 3)
    assert (row["n"], row["dim"], row["dmin"]) == (9, 6, 3)
    assert row["t"] == 1
    assert row["group"] == "3x3"
    assert row["ext_modulus"] == "4,0,1"
    assert row["xQ"] == "1"
    assert row["nmds"]
    assert row["design"] == {
        "t": 2,
        "lambda": 1,
        "lambda_dual": 5,
        "b": 12,
        "mode": "measured",
    }


def test_build_table_row_next_prime():
    row = build_table_row(13, 3)
    assert (row["n"], row["dim"], row["dmin"]) == (9, 6, 3)
    assert row["ext_modulus"] == "11,0,1"
    assert row["xQ"] == "2"
    assert row["design"]["lambda"] == 1
    assert row["design"]["b"] == 12


def test_build_table_row_larger_k():
    row = build_table_row(31, 5, k=10)
    assert (row["n"], row["dim"], row["dmin"]) == (25, 20, 5)
    assert row["design"] == {
        "t": 2,
        "lambda": 71,
        "lambda_dual": 1349,
        "b": 2130,
        "mode": "measured",
    }


def test_build_table_row_explicit_coefficient():
    row = build_table_row(7, 3, b=2)
    assert row["curve"] == build_table_row(7, 3)["curve"]
    with pytest.raises(HypothesisError):
        build_table_row(7, 3, b=1)


def test_build_table_row_rejects_bad_k():
    with pytest.raises(HypothesisError, match="multiple of p"):
        build_table_row(7, 3, k=2)
    with pytest.raises(HypothesisError, match="multiple of p"):
        build_table_row(7, 3, k=6)  # 2k = 12 > 9


def test_find_curve_rejects_inadmissible_parameters():
    with pytest.raises(HypothesisError):
        find_curve(11, 3)


def _count_curve_layers(monkeypatch):
    calls = {"points": 0, "group_structure": 0, "point_group_isomorphism": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("points", "group_structure"):
        monkeypatch.setattr(Curve, name, counted(name, getattr(Curve, name)))
    original = elliptic_curve.point_group_isomorphism
    wrapped = counted("point_group_isomorphism", original)
    for modname, module in list(sys.modules.items()):
        if modname.startswith("nmdscodes") and getattr(
            module, "point_group_isomorphism", None
        ) is original:
            monkeypatch.setattr(module, "point_group_isomorphism", wrapped)
    return calls


def test_build_table_row_builds_points_and_group_map_once(monkeypatch):
    calls = _count_curve_layers(monkeypatch)
    row = build_table_row(43, 7)
    assert row["dmin"] == 49 - 14
    assert calls == {"points": 1, "group_structure": 0, "point_group_isomorphism": 1}


def test_construct_builds_points_and_group_map_once(monkeypatch):
    calls = _count_curve_layers(monkeypatch)
    c = construct(7, 3, 3, b=2)
    assert c.curve is c.iso.curve
    assert c.iso.group.encode() == "3x3"
    assert calls == {"points": 1, "group_structure": 0, "point_group_isomorphism": 1}


def test_construct_checks_the_parameters_once(monkeypatch):
    from nmdscodes import param_search

    calls = []
    original = param_search.triple_conditions

    def counted(q, p):
        calls.append((q, p))
        return original(q, p)

    monkeypatch.setattr(param_search, "triple_conditions", counted)
    c = construct(7, 3, 3)
    assert c.iso.group.encode() == "3x3"
    assert calls == [(7, 3)]
    # find_curve keeps its own check and messages
    with pytest.raises(HypothesisError, match="divide"):
        find_curve(11, 3)
    assert calls == [(7, 3), (11, 3)]


@pytest.mark.parametrize("q,p,budget", [(16896211, 4111, 1000), (343, 19, 342)])
def test_curve_scan_refuses_before_it_allocates(q, p, budget):
    # the first candidate already costs q > budget, so the scan refuses
    # before any table of length q exists (one int64 table is 135 MB at
    # q = 16896211)
    import tracemalloc

    from nmdscodes.errors import BudgetError

    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"curve scan for q={q} exceeded budget {budget}"):
            find_curve(q, p, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _scan_outcome(scan, q, p, limit):
    try:
        curve = scan(q, p, limit)
    except BudgetError as exc:
        return "budget", str(exc)
    return "curve", curve


# (q, p): every catalog row, q = 343, a4 != 0 winners over F_11, F_25
# and F_49, and windows with no curve at all (every candidate charged)
PRIME_SCANS = ((7, 3), (13, 3), (31, 5), (43, 7), (157, 13), (307, 17), (3541, 59),
               (4423, 67), (5113, 71), (11, 3), (7, 5), (13, 5))
EXTENSION_SCANS = ((7, 3), (13, 3), (31, 5), (43, 7), (157, 13), (307, 17), (11, 3),
                   (7, 5), (343, 19), (25, 5), (49, 7), (25, 3))


def _winner(q, p, limit):
    return param_search._scan(q, p, limit)


def test_one_scan_matches_both_replaced_scans():
    from field_reference import scan_extension_field, scan_prime_field

    for reference, cases in ((scan_prime_field, PRIME_SCANS),
                             (scan_extension_field, EXTENSION_SCANS)):
        for q, p in cases:
            curve = param_search._scan(q, p, 10**9)
            assert ("curve", curve) == _scan_outcome(reference, q, p, 10**9)
            if curve is None:
                charge = (q * q - 1) * q
            else:
                elements = list(curve.field.elements())
                charge = (elements.index(curve.a4) * q + elements.index(curve.b)) * q
            # the scan charges that work: it runs at charge, and refuses below
            assert _scan_outcome(_winner, q, p, charge) == ("curve", curve)
            # the same charge and message at the edge of the budget
            for limit in (charge - 1, charge, q):
                assert _scan_outcome(_winner, q, p, limit) == _scan_outcome(
                    reference, q, p, limit
                )
            assert _scan_outcome(_winner, q, p, charge - 1)[0] == "budget"
    assert _winner(25, 5, 10**9).a4 == FieldSpec(5, 2)((0, 2))


def _exits_4(capsys, argv, message):
    from nmdscodes.cli import main

    assert main(list(argv)) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: certification mismatch: {message}\n")


def test_search_refuses_a_trace_that_the_recheck_does_not_return(capsys, monkeypatch):
    real = param_search.triple_conditions
    monkeypatch.setattr(param_search, "triple_conditions", lambda q, p: real(q, p) + 1)
    message = "trace mismatch at (q=7, p=3)"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        search_parameters(7)
    _exits_4(capsys, ("search-params", "--p-max", "7"), message)


def test_a_scan_winner_that_fails_verification_is_a_certification_error(capsys, monkeypatch):
    def refuse(curve, p, budget=None):
        raise HypothesisError("forced refusal")

    monkeypatch.setattr(param_search, "verify_curve", refuse)
    message = "scan winner failed verification: forced refusal"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        find_curve(7, 3)
    _exits_4(capsys, ("find-curve", "--q", "7", "--p", "3"), message)


def test_a_catalog_row_classified_mds_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(param_search, "classify_mds_nmds", lambda group, k: "MDS")
    message = "expected NMDS, classification says MDS"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        build_table_row(7, 3)
    _exits_4(capsys, ("table3", "--rows", "7"), message)
