import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nmdscodes import cli
from nmdscodes.cli import main
from nmdscodes.subset_designs import DesignInstance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_params_text(capsys):
    code, out, err = run(capsys, "search-params", "--p-max", "7")
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0].split() == ["q", "p", "t", "code"]
    assert lines[1].split() == ["7", "3", "1", "[9,2k,9-2k]"]
    assert lines[2].split() == ["43", "7", "5", "[49,2k,49-2k]"]
    assert lines[-1] == "2 triple(s)"


def test_search_params_empty_window(capsys):
    code, out, err = run(capsys, "search-params", "--p-max", "2")
    assert code == 0
    assert out.splitlines()[-1] == "0 triple(s)"


def test_search_params_json(capsys):
    code, out, err = run(capsys, "search-params", "--p-max", "7", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"q": 7, "p": 3, "t": 1, "code": "[9,2k,9-2k]"},
        {"q": 43, "p": 7, "t": 5, "code": "[49,2k,49-2k]"},
    ]


def test_search_params_all_traces(capsys):
    code, out, err = run(capsys, "search-params", "--p-max", "7", "--all-t", "--json")
    assert code == 0
    qs = [json.loads(line)["q"] for line in out.splitlines()]
    assert qs == [7, 13, 31, 43]


def test_find_curve_text(capsys):
    code, out, err = run(capsys, "find-curve", "--q", "7", "--p", "3")
    assert code == 0
    assert out.splitlines() == [
        "curve: q=7^1;a4=0;b=2",
        "group: 3x3",
        "points: 9",
        "p-torsion: verified",
    ]


def test_find_curve_json(capsys):
    code, out, err = run(capsys, "find-curve", "--q", "13", "--p", "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["curve"] == "q=13^1;a4=0;b=3"
    assert record["group"] == "3x3"
    assert record["points"] == 9
    assert record["p_torsion_verified"]


def test_find_curve_rejects_a_q_past_the_float_range(capsys):
    code, out, err = run(capsys, "find-curve", "--q", str(3**700 + 2), "--p", "3")
    assert (code, out) == (2, "")
    assert "is not a prime power" in err
    # a q past the range where Miller-Rabin certifies is refused, not called prime
    code, out, err = run(capsys, "find-curve", "--q", str(2**89 - 1), "--p", "3")
    assert (code, out) == (2, "")
    assert "cannot certify" in err


def test_find_curve_budget_refusal(capsys):
    code, out, err = run(capsys, "find-curve", "--q", "31", "--p", "5", "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("NMDS_BUDGET", "100000000")
    code, out, err = run(capsys, "find-curve", "--q", "31", "--p", "5", "--budget", "10")
    assert code == 3
    assert "budget 10" in err


def test_env_budget_applies_without_flag(capsys, monkeypatch):
    monkeypatch.setenv("NMDS_BUDGET", "10")
    code, out, err = run(capsys, "find-curve", "--q", "31", "--p", "5")
    assert code == 3
    assert "budget 10" in err


def test_budget_flag_caps_point_enumeration(capsys, monkeypatch):
    # with --b there is no curve scan; the flag must still cap the points
    monkeypatch.setenv("NMDS_BUDGET", "100000000")
    code, out, err = run(
        capsys, "build", "--q", "7", "--p", "3", "--k", "3", "--b", "2", "--budget", "1"
    )
    assert code == 3
    assert "point budget 1" in err


# requests that charge no budget: a closed-form count, and the weight
# recurrences of a code too large to sweep
UNCHARGED = (("subset-count", "--group", "3x3", "--k", "2", "--x", "0,0"),
             ("weights", "--q", "31", "--p", "5", "--k", "5"))


def test_bad_env_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("NMDS_BUDGET", "abc")
    for argv in (("find-curve", "--q", "7", "--p", "3"), *UNCHARGED):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "NMDS_BUDGET" in err


def test_negative_budget_exits_2(capsys, monkeypatch):
    build = ("build", "--q", "7", "--p", "3", "--k", "3")
    for flagged, unflagged in ((build, ("find-curve", "--q", "7", "--p", "3")),
                               *((argv, argv) for argv in UNCHARGED)):
        monkeypatch.delenv("NMDS_BUDGET", raising=False)
        code, out, err = run(capsys, *flagged, "--budget", "-5")
        assert (code, out) == (2, ""), flagged
        assert "budget -5 is negative" in err
        monkeypatch.setenv("NMDS_BUDGET", "-5")
        code, out, err = run(capsys, *unflagged)
        assert (code, out) == (2, ""), unflagged
        assert "budget -5 is negative" in err


def test_zero_budget_is_a_budget(capsys, monkeypatch):
    monkeypatch.setenv("NMDS_BUDGET", "0")
    code, out, err = run(capsys, "find-curve", "--q", "7", "--p", "3")
    assert code == 3
    assert "budget 0" in err
    code, out, err = run(capsys, "subset-count", "--group", "3x3", "--k", "2", "--x", "0,0")
    assert code == 0 and out


def _call(capsys, argv):
    """Exit code, stdout and stderr of main, including argparse's exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_per_process_answers_like_a_fresh_one(capsys, monkeypatch):
    calls = [
        ("find-curve", "--q", "7", "--p", "3"),
        ("build", "--q", "7", "--p", "3", "--k", "3", "--json"),
        ("build", "--q", "7", "--p", "3"),  # --k missing: argparse exits 2
        ("weights", "--help"),
        ("table3", "--rows", "99"),
        ("find-curve", "--q", "7", "--p", "3"),
    ]
    cached = [_call(capsys, argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    assert [c[0] for c in cached] == [0, 0, 2, 0, 2, 0]
    assert all(out or err for _, out, err in cached)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert [_call(capsys, argv) for argv in calls] == cached


def test_build_text_matrix(capsys):
    code, out, err = run(capsys, "build", "--q", "7", "--p", "3", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "code: [9,6,3] over F_7"
    assert lines[3] == "extension modulus (constant first): 4,0,1"
    assert lines[5] == "classification: NMDS"
    assert lines[7] == "1 1 1 1 1 1 1 1 1"
    assert lines[8] == "0 6 6 4 4 2 2 3 3"
    assert len(lines) == 13


def test_build_json(capsys):
    code, out, err = run(capsys, "build", "--q", "7", "--p", "3", "--k", "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert (record["n"], record["dim"], record["dmin"]) == (9, 6, 3)
    assert record["classification"] == "NMDS"
    assert record["generator_matrix"][0] == [1] * 9
    assert len(record["generator_matrix"]) == 6


def test_build_rejects_bad_k(capsys):
    code, out, err = run(capsys, "build", "--q", "7", "--p", "3", "--k", "2")
    assert code == 2
    assert "hypothesis" in err and "k" in err


def test_build_rejects_reducible_extension(capsys):
    code, out, err = run(
        capsys, "build", "--q", "13", "--p", "3", "--k", "3",
        "--ext-poly", "0,11,1",
    )
    assert code == 2
    assert "extension modulus" in err


def test_build_accepts_explicit_extension(capsys):
    code, out, err = run(
        capsys, "build", "--q", "13", "--p", "3", "--k", "3",
        "--ext-poly", "11,0,1",
    )
    assert code == 0
    assert "extension modulus (constant first): 11,0,1" in out


def test_build_ext_poly_round_trips_at_q343(capsys):
    # q = 7^3: the extension is a flat sextic over F_7, so the modulus
    # that build prints has 7 coefficients and must be accepted back
    code, out, err = run(capsys, "build", "--q", "343", "--p", "19", "--k", "19", "--json")
    assert code == 0
    modulus = json.loads(out)["ext_modulus"]
    assert modulus == "1,0,0,0,1,0,1"
    pinned = run(
        capsys, "build", "--q", "343", "--p", "19", "--k", "19", "--json",
        "--ext-poly", modulus,
    )
    assert pinned == (0, out, "")


def test_build_rejects_a_quadratic_ext_poly_at_q343(capsys):
    code, out, err = run(
        capsys, "build", "--q", "343", "--p", "19", "--k", "19", "--ext-poly", "3,0,1",
    )
    assert code == 2
    assert "extension modulus" in err and "degree 6" in err


def test_build_request_at_q343_peaks_below_one_and_a_half_matrices(capsys):
    # the [361, 38] generator over F_{7^3} is a regular matrix of 38 x 361
    # blocks of 3 x 3 residues, 0.94 MiB in int64.  The request peaked at
    # 2.16 times that with a coefficient array beside it and every row
    # encoded before the text was joined; the bound was 1.5 times it
    # (1.41 MiB).  Stored in int16 the matrix is 0.24 MiB, and the request
    # peaked at 0.44 MiB.  The field tables are built once per process, so
    # an untraced first request builds them
    import tracemalloc

    from nmdscodes import param_search

    argv = ["build", "--q", "343", "--p", "19", "--k", "19"]
    code, first, err = run(capsys, *argv)
    assert code == 0 and not err
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, first)
    assert param_search.construct(343, 19, 19).code.matrix.dtype.name == "int16"
    assert peak < 0.55 * 2**20, peak


def test_build_json_at_q3541_encodes_within_two_and_a_half_texts(monkeypatch):
    # the generator is 118 x 3481 residues, a 2.2 MiB text.  Dumped as one
    # list of Python ints it peaked at 9.5 times the text; encoded a row at
    # a time it is the row texts, then their join, then the record's line.
    # The construction is built untraced, so the peak is the encoding's
    import tracemalloc

    from nmdscodes import param_search

    built = param_search.construct(3541, 59, 59)
    assert built.dmin == 3481 - 118
    monkeypatch.setattr(cli, "construct", lambda *args, **kwargs: built)
    args = cli._build_parser().parse_args(
        ["build", "--q", "3541", "--p", "59", "--k", "59", "--json"])
    tracemalloc.start()
    try:
        (line,) = args.handler(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = json.loads(line)
    assert json.dumps(record) == line  # the text of one json.dumps of the record
    assert list(record)[-1] == "generator_matrix"
    assert record["generator_matrix"] == built.code.matrix.tolist()
    assert peak < 2.5 * len(line), peak / len(line)


def test_main_writes_build_json_within_half_a_text_of_its_handler(monkeypatch, tmp_path):
    # joined with its newline and written whole, the q = 3541 text was
    # copied twice more, and main peaked at 3.00 texts, one over its
    # handler's 2.00.  The handler returns before anything is written and
    # each line is written on its own, which read 2.00 texts
    import tracemalloc

    from nmdscodes import param_search

    built = param_search.construct(3541, 59, 59)
    monkeypatch.setattr(cli, "construct", lambda *args, **kwargs: built)
    argv = ["build", "--q", "3541", "--p", "59", "--k", "59", "--json"]
    args = cli._build_parser().parse_args(argv)
    tracemalloc.start()
    try:
        (line,) = args.handler(args)
        handler = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    target = tmp_path / "build.json"
    tracemalloc.start()
    try:
        code = main([*argv, "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.read_bytes() == (line + "\n").encode("utf-8")
    assert peak < handler + len(line) / 2, (peak - handler) / len(line)


def test_build_with_explicit_coefficient(capsys):
    code, out, err = run(capsys, "build", "--q", "7", "--p", "3", "--k", "3", "--b", "2")
    assert code == 0
    default = run(capsys, "build", "--q", "7", "--p", "3", "--k", "3")
    assert out == default[1]


def test_weights_brute(capsys):
    code, out, err = run(capsys, "weights", "--q", "7", "--p", "3", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "method: brute"
    assert lines[3] == (
        "primal: 1 + 72z^3 + 324z^4 + 3348z^5 + 10656z^6 + 30024z^7"
        " + 43794z^8 + 29430z^9"
    )
    assert lines[4] == "dual:   1 + 72z^6 + 216z^8 + 54z^9"


def test_weights_formula_json(capsys):
    code, out, err = run(
        capsys, "weights", "--q", "31", "--p", "5", "--k", "10", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "formula"
    assert record["a_min"] == 63900
    assert record["primal"][5] == 63900
    assert sum(record["dual"]) == 31**5


def test_weights_methods_agree(capsys):
    # both rows the codeword sweep covers; q = 13 sweeps in two chunks
    for q in ("7", "13"):
        brute = run(capsys, "weights", "--q", q, "--p", "3", "--k", "3",
                    "--method", "brute", "--json")
        formula = run(capsys, "weights", "--q", q, "--p", "3", "--k", "3",
                      "--method", "formula", "--json")
        a, b = json.loads(brute[1]), json.loads(formula[1])
        assert a["primal"] == b["primal"]
        assert a["dual"] == b["dual"]


def test_weights_brute_refuses_past_int64_whatever_the_budget(capsys):
    # 31^20 messages: the int64 message radix would wrap, so the sweep
    # refuses even under a budget that admits it
    code, out, err = run(capsys, "weights", "--q", "31", "--p", "5", "--k", "10",
                         "--method", "brute", "--budget", str(10**40))
    assert code == 3
    assert "2^62" in err


def test_weights_prints_counts_past_the_int_digit_limit(capsys):
    # the dual counts at q = 343 have up to 819 digits; the CLI lifts the
    # int -> str limit for its output and restores it afterwards
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "weights", "--q", "343", "--p", "19",
                             "--k", "19", "--json")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and not err
    record = json.loads(out)
    assert max(len(str(c)) for c in record["dual"]) == 819
    assert sum(record["dual"]) == 343 ** (361 - 38)


def test_verify_design_primal(capsys):
    code, out, err = run(capsys, "verify-design", "--q", "7", "--p", "3", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "block family: minimum-weight supports, 12 blocks of size 3"
    assert lines[1] == "design: 2-(9,3,1)"
    assert lines[2] == "simple: yes"
    assert lines[-1] == "verdict: design, matches closed form"


def test_verify_design_dual(capsys):
    code, out, err = run(
        capsys, "verify-design", "--q", "7", "--p", "3", "--k", "3", "--dual"
    )
    assert code == 0
    assert "design: 2-(9,6,5)" in out


def test_verify_design_builds_one_family_per_call(capsys, monkeypatch):
    # the dual family is read from the complemented columns of the one
    # listed family, with no second family built
    built, real = [], DesignInstance.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(DesignInstance, "__post_init__", counted)
    for extra in (), ("--dual",):
        built.clear()
        code, out, err = run(capsys, "verify-design", "--q", "7", "--p", "3", "--k", "3", *extra)
        assert code == 0 and len(built) == 1, extra


def test_verify_design_dual_json_peaks_below_two_block_arrays(monkeypatch):
    # the q = 31 request lists the 130760 primal rows (1.0 MiB) and reads
    # the dual from their complemented columns.  With a complemented copy
    # of the rows, validated as a second family, it peaked at 3.2 times
    # the rows.  The construction is built untraced, so the peak is the
    # listing's and the check's
    import tracemalloc

    from nmdscodes import param_search

    built = param_search.construct(31, 5, 5)
    monkeypatch.setattr(cli, "construct", lambda *args, **kwargs: built)
    args = cli._build_parser().parse_args(
        ["verify-design", "--q", "31", "--p", "5", "--k", "5", "--dual", "--json"])
    tracemalloc.start()
    try:
        (line,) = args.handler(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = json.loads(line)
    assert (record["k"], record["b"], record["lambda"], record["match"]) == (10, 130760, 19614, True)
    assert peak < 2.0 * 130760 * 8, peak / (130760 * 8)


def test_verify_design_strength_one(capsys):
    code, out, err = run(
        capsys, "verify-design", "--q", "7", "--p", "3", "--k", "3", "--t", "1"
    )
    assert code == 0
    assert "design: 1-(9,3,4)" in out
    assert "lambda closed-form: 4" in out


def test_verify_nmds(capsys):
    code, out, err = run(capsys, "verify-nmds", "--q", "7", "--p", "3", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "code: [9,6,3] over F_7"
    assert lines[1] == "classification: NMDS"
    assert lines[3] == "structural column check: pass"


def test_verify_nmds_is_charged_the_cells_of_its_column_submatrices(capsys, monkeypatch):
    # C(9,5)*6*5 + C(9,6)*6*6 + C(9,7)*6*7 = 8316 cells on the [9,6] code;
    # the flag wins over NMDS_BUDGET, which wins over the default
    argv = ("verify-nmds", "--q", "7", "--p", "3", "--k", "3")
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--budget", "8315")
    assert code == 3 and not out
    assert "8316 submatrix cells of column subsets exceed budget 8315" in err
    assert run(capsys, *argv, "--budget", "8316")[0] == 0
    monkeypatch.setenv("NMDS_BUDGET", "8315")
    assert run(capsys, *argv)[0] == 3
    assert run(capsys, *argv, "--budget", "8316")[0] == 0
    monkeypatch.setenv("NMDS_BUDGET", "8316")
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--budget", "8315")[0] == 3


def test_verify_nmds_refuses_the_q31_row_within_a_second(capsys, monkeypatch):
    # 9769135 column subsets passed the old count of subsets and ran for
    # about 25 minutes; their 1001057750 cells are over the default
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-nmds", "--q", "31", "--p", "5", "--k", "5")
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert "1001057750 submatrix cells of column subsets exceed budget 1000000" in err


def test_subset_count(capsys):
    code, out, err = run(
        capsys, "subset-count", "--group", "3x3", "--k", "6", "--x", "0,0"
    )
    assert code == 0
    assert out.splitlines() == ["count: 12"]


def test_subset_count_oracle(capsys):
    code, out, err = run(
        capsys, "subset-count", "--group", "3x3", "--k", "6", "--x", "0,0", "--oracle"
    )
    assert code == 0
    assert out.splitlines() == ["count: 12", "oracle: 12 (match)"]


def test_subset_count_oracle_budget_refusal(capsys):
    # the oracle's table is charged n(k+1)|G| = 25*11*25 = 6875 cell updates
    argv = ("subset-count", "--group", "5x5", "--k", "10", "--x", "0,0", "--oracle", "--budget")
    for budget in ("1000", "6874"):
        code, out, err = run(capsys, *argv, budget)
        assert (code, out) == (3, "")
        assert f"n(k+1)|G| = 25*11*25 = 6875 cell updates, over the budget {budget}" in err
    code, out, err = run(capsys, *argv, "6875")
    assert code == 0
    assert out.splitlines() == ["count: 130760", "oracle: 130760 (match)"]


def test_subset_count_oracle_is_charged_the_table_not_the_subsets(capsys):
    # C(49, 20) subsets is far over the default, 49*21*49 updates are not
    code, out, err = run(
        capsys, "subset-count", "--group", "7x7", "--k", "20", "--x", "0,0", "--oracle"
    )
    assert code == 0
    assert out.splitlines() == ["count: 577092394824", "oracle: 577092394824 (match)"]
    # 10^4 * 2 * 10^4 updates are over the default for all that k = 1
    code, out, err = run(
        capsys, "subset-count", "--group", "100x100", "--k", "1", "--x", "0,0", "--oracle"
    )
    assert (code, out) == (3, "")
    assert "= 200000000 cell updates, over the budget 100000000" in err


def test_subset_count_oracle_refuses_before_it_builds_the_pool(capsys, monkeypatch):
    # 10^10 * 2 * 10^10 updates are over the 10^8 default; no element row may exist first
    from nmdscodes.subset_designs import AbelianGroup

    def refuse(*args, **kwargs):
        raise AssertionError("the pool was built before the budget check")

    monkeypatch.setattr(AbelianGroup, "elements", refuse)
    monkeypatch.setattr(AbelianGroup, "residues", refuse, raising=False)
    code, out, err = run(
        capsys, "subset-count", "--group", "100000x100000", "--k", "1", "--x", "0,0", "--oracle"
    )
    assert (code, out) == (3, "")
    assert (
        "n(k+1)|G| = 10000000000*2*10000000000 = 200000000000000000000 cell updates,"
        " over the budget 100000000"
    ) in err


def test_subset_count_nonzero(capsys):
    code, out, err = run(
        capsys, "subset-count", "--group", "5", "--k", "2", "--x", "1",
        "--nonzero", "--oracle", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 1
    assert record["oracle"] == 1


def test_subset_count_whole_group_misses_nonzero_target(capsys):
    code, out, err = run(
        capsys, "subset-count", "--group", "3x3", "--k", "9", "--x", "1,0"
    )
    assert code == 0
    assert out.splitlines() == ["count: 0"]


def test_subset_count_bad_group(capsys):
    code, out, err = run(capsys, "subset-count", "--group", "3x5", "--k", "2", "--x", "0,0")
    assert code == 2
    assert "group" in err
    # an empty part is no factor: these were read as Z_3, Z_3 x Z_3 and the trivial group
    for group in ("3x", "x3", "3xx3", "", " ", "x"):
        code, out, err = run(capsys, "subset-count", "--group", group, "--k", "1", "--x", "0")
        assert (code, out) == (2, ""), group
        assert f"bad group spec {group!r}" in err


def test_subset_count_bad_element(capsys):
    for x in "1", "1,2,7":  # too few and too many residues for 3x3
        code, out, err = run(capsys, "subset-count", "--group", "3x3", "--k", "2", "--x", x,
                             "--json")
        assert (code, out) == (2, ""), x
        assert "expected 2 residues" in err


@pytest.mark.parametrize("oracle", [(), ("--oracle",)])
def test_subset_count_in_the_trivial_group(capsys, oracle):
    code, out, err = run(capsys, "subset-count", "--group", "1", "--k", "0", "--x", "", "--json",
                         *oracle)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["group"], record["x"], record["count"]) == ("1", "", 1)
    assert record.get("oracle", 1) == 1


def test_certification_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_subsets", lambda group, k, x: 999)
    code, out, err = run(
        capsys, "subset-count", "--group", "3x3", "--k", "6", "--x", "0,0", "--oracle"
    )
    assert code == 4
    assert "certification mismatch" in err


# each cross-check below fails when the value that feeds it is off by one
def test_weights_exits_4_when_the_formula_and_the_subset_count_disagree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "min_weight_count_formula", lambda p, q, k: 73)
    code, out, err = run(capsys, "weights", "--q", "7", "--p", "3", "--k", "3")
    assert (code, out) == (4, "")
    assert err == "error: certification mismatch: A_min formula 73 != (q-1) x subset count 72\n"


def test_weights_brute_exits_4_when_the_sweep_and_the_formula_disagree(capsys, monkeypatch):
    # 13 subsets and a formula of 6 x 13 pass the first check; the sweep counts 72
    monkeypatch.setattr(cli, "count_subsets", lambda group, k, x: 13)
    monkeypatch.setattr(cli, "min_weight_count_formula", lambda p, q, k: 78)
    code, out, err = run(capsys, "weights", "--q", "7", "--p", "3", "--k", "3", "--method", "brute")
    assert (code, out) == (4, "")
    assert err == "error: certification mismatch: measured A_min 72 != formula 78\n"


def test_verify_design_exits_4_when_the_measured_lambda_misses_the_closed_form(
    capsys, monkeypatch
):
    monkeypatch.setattr(cli, "support_coverage", lambda p, k, size, t: 2)
    code, out, err = run(capsys, "verify-design", "--q", "7", "--p", "3", "--k", "3")
    assert (code, out) == (4, "")
    assert err == "error: certification mismatch: measured lambda 1 != closed form 2\n"


def test_verify_nmds_exits_4_when_the_column_ranks_contradict_the_class(capsys, monkeypatch):
    monkeypatch.setattr(cli, "nmds_structural_check", lambda code, budget=None: False)
    code, out, err = run(capsys, "verify-nmds", "--q", "7", "--p", "3", "--k", "3")
    assert (code, out) == (4, "")
    assert err == (
        "error: certification mismatch: subset-sum classification says NMDS"
        " but the column-rank conditions fail\n"
    )


def test_table3_selected_rows_deterministic(capsys):
    first = run(capsys, "table3", "--rows", "7,13")
    second = run(capsys, "table3", "--rows", "7,13")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    lines = first[1].splitlines()
    assert len(lines) == 3  # header + two rows
    assert "q=7^1;a4=0;b=2" in lines[1]
    assert "measured" in lines[1]
    assert "q=13^1;a4=0;b=3" in lines[2]


def test_table3_json_row(capsys):
    code, out, err = run(capsys, "table3", "--rows", "7", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["design"] == {
        "t": 2, "lambda": 1, "lambda_dual": 5, "b": 12, "mode": "measured"
    }
    assert record["xQ"] == "1"


def test_table3_bad_rows_exits_2(capsys):
    code, out, err = run(capsys, "table3", "--rows", "abc")
    assert code == 2
    assert "--rows" in err


def test_table3_non_integer_rows_name_the_valid_rows(capsys):
    code, out, err = run(capsys, "table3", "--rows", ",")
    assert (code, out) == (2, "")
    assert "--rows needs comma-separated integers, got ','; valid rows: 7,13,31,43,157,307,3541,4423,5113" in err


def test_table3_empty_rows_is_a_value_and_exits_2(capsys):
    # not a request for every row
    code, out, err = run(capsys, "table3", "--rows", "")
    assert (code, out) == (2, "")
    assert "--rows needs comma-separated integers, got ''; valid rows: " in err


def test_table3_row_not_in_the_catalog_exits_2(capsys):
    valid = "7,13,31,43,157,307,3541,4423,5113"
    for rows in ("99", "7,99"):
        code, out, err = run(capsys, "table3", "--rows", rows)
        assert code == 2
        assert out == ""
        assert "99" in err and valid in err


def test_search_params_refuses_a_prime_bound_over_budget(capsys, monkeypatch):
    # the bound is charged before the sieve exists, so nothing is allocated
    import tracemalloc

    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "search-params", "--p-max", "100000", "--budget", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "prime bound 100000 exceeds budget 10" in err
    assert peak < 2**18
    code, out, err = run(capsys, "table4", "--p-max", "1000", "--budget", "999")
    assert code == 3
    assert "budget 999" in err


def test_search_params_budget_precedence(capsys, monkeypatch):
    monkeypatch.setenv("NMDS_BUDGET", "10")
    code, out, err = run(capsys, "search-params", "--p-max", "1000")
    assert code == 3
    assert "budget 10" in err
    code, out, err = run(capsys, "search-params", "--p-max", "1000", "--budget", "1000")
    assert code == 0
    assert out.splitlines()[-1].endswith("triple(s)")
    monkeypatch.delenv("NMDS_BUDGET")
    # the default budget keeps table4's default bound and --p-max 10000
    for extra in ((), ("--p-max", "10000")):
        code, out, err = run(capsys, "table4", *extra)
        assert code == 0 and not err


def test_table4_window(capsys):
    code, out, err = run(capsys, "table4", "--p-max", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4 triple(s)"
    assert lines[1].split()[0] == "7"
    assert lines[4].split()[:3] == ["343", "19", "17"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.txt"
    code, out, err = run(
        capsys, "search-params", "--p-max", "7", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").splitlines()[-1] == "2 triple(s)"


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.txt"
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "subset-count", "--group", "3x3", "--k", "3",
                         "--x", "0,0", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output: ")
    assert "missing_dir" in err
    assert sys.get_int_max_str_digits() == limit


def test_empty_output_path_is_unwritable_and_exits_2(capsys):
    code, out, err = run(capsys, "subset-count", "--group", "3x3", "--k", "3",
                         "--x", "0,0", "--output", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: ")


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-design", "--q", "7", "--p", "3", "--k", "3", "--threads", "2"])
    assert exc.value.code == 2


NO_MASKED_ARRAYS = """
import sys
from nmdscodes.cli import main
for argv in (
    ["table3", "--rows", "43", "--json"],
    ["build", "--q", "343", "--p", "19", "--k", "19"],
    ["weights", "--q", "13", "--p", "3", "--k", "3", "--method", "brute", "--json"],
    ["verify-design", "--q", "7", "--p", "3", "--k", "3"],
):
    assert main(argv) == 0, argv
assert "numpy.ma" not in sys.modules
"""


def test_workloads_never_import_numpy_ma():
    # numpy.ma is imported by the first np.unique call and costs about
    # 45 ms of start-up, so no path of these commands may reach it
    import nmdscodes

    src = str(Path(nmdscodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]


# sha256 of stdout, recorded at 693d4aa; no workload digest covers these requests
GOLDEN_STDOUT = {
    ("table3", "--rows", "4423,5113", "--json"):
        "6cbbe92e024feec9fd91ff8808e0d5a85c56d989cdd6398275b7bd0dcb82ae7d",
    ("find-curve", "--q", "31", "--p", "5", "--json"):
        "0a7aaeb174dd26a67dd17a1b9b16510b0ece9887c531d2945c037f398bc37f00",
    ("find-curve", "--q", "5113", "--p", "71"):
        "fd0cb78196b495f834573ee28df9891f0895808aa2fbe4e1f9732f898195a069",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_matches_its_recorded_digest(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]
