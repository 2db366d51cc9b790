"""Command-line front end for the code-construction pipeline.

Exit codes: 0 success, 2 hypothesis violation (bad parameters for the
construction), 3 enumeration budget refusal, 4 certification mismatch
(two independent computations disagreed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TextIO

from . import budget as _budget
from .code_analysis import (
    macwilliams_transform,
    min_weight_count_formula,
    min_weight_supports,
    nmds_weight_distribution,
    support_coverage,
    weight_distribution_bruteforce,
)
from .code_builder import classify_mds_nmds, nmds_structural_check
from .errors import BudgetError, CertificationError, HypothesisError
from .param_search import (
    Construction,
    build_table_row,
    check_code_parameters,
    construct,
    find_curve,
    search_parameters,
)
from .subset_designs import (
    AbelianGroup,
    brute_force_counts,
    count_subsets,
    count_subsets_nonzero,
    verify_design,
)

CATALOG_ROWS = ((7, 3), (13, 3), (31, 5), (43, 7), (157, 13), (307, 17),
                (3541, 59), (4423, 67), (5113, 71))


def _parse_ext_poly(text: str) -> tuple[int, ...]:
    """Extension modulus from 'c0,...,c_{2t}' (constant coefficient first);
    its degree is checked against q = r^t when the field is built."""
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise HypothesisError(f"cannot parse extension polynomial {text!r}") from None


def _parse_group(text: str) -> AbelianGroup:
    try:
        return AbelianGroup.parse(text)
    except ValueError as exc:
        raise HypothesisError(f"bad group spec {text!r}: {exc}") from None


def _construct(args: argparse.Namespace) -> Construction:
    modulus = None if args.ext_poly is None else _parse_ext_poly(args.ext_poly)
    return construct(
        args.q, args.p, args.k, b=args.b, modulus=modulus, budget=args.budget
    )


# ----------------------------------------------------------------------
# Handlers.  Each returns the list of output lines.


def _cmd_search_params(args: argparse.Namespace) -> list[str]:
    triples = search_parameters(
        args.p_max, require_positive_t=not args.all_t, budget=args.budget
    )
    if args.json:
        return [json.dumps(t.to_json()) for t in triples]
    lines = [f"{'q':>9} {'p':>5} {'t':>5}  code"]
    for t in triples:
        lines.append(f"{t.q:>9} {t.p:>5} {t.t:>5}  {t.code_parameters()}")
    lines.append(f"{len(triples)} triple(s)")
    return lines


def _cmd_find_curve(args: argparse.Namespace) -> list[str]:
    iso = find_curve(args.q, args.p, budget=args.budget)
    if args.json:
        record = {
            "curve": iso.curve.encode(),
            "points": len(iso.points),
            "group": iso.group.encode(),
            "p_torsion_verified": iso.group.factors == (args.p, args.p),
        }
        return [json.dumps(record)]
    return [
        f"curve: {iso.curve.encode()}",
        f"group: {iso.group.encode()}",
        f"points: {len(iso.points)}",
        "p-torsion: verified",
    ]


def _cmd_build(args: argparse.Namespace) -> list[str]:
    built = _construct(args)
    iso, ext, divisor, code = built.iso, built.ext, built.divisor, built.code
    verdict = classify_mds_nmds(iso.group, args.k)
    dmin = built.dmin
    if args.json:
        record = {
            "q": args.q,
            "p": args.p,
            "k": args.k,
            "curve": iso.curve.encode(),
            "group": iso.group.encode(),
            "ext_modulus": ",".join(str(c) for c in ext.ext.modulus),
            "xQ": divisor.x_base.encode(),
            "n": code.n,
            "dim": code.k_dim,
            "dmin": dmin,
            "classification": verdict,
        }
        rows = ", ".join(map(json.dumps, code.gen_rows_json()))  # encoded a row at a time
        return [f'{json.dumps(record)[:-1]}, "generator_matrix": [{rows}]}}']  # as one dump
    return [
        f"code: [{code.n},{code.k_dim},{dmin}] over F_{iso.curve.field.order}",
        f"curve: {iso.curve.encode()}",
        f"group: {iso.group.encode()}",
        f"extension modulus (constant first): "
        + ",".join(str(c) for c in ext.ext.modulus),
        f"divisor: k={args.k} at xQ={divisor.x_base.encode()} (trace-zero pair)",
        f"classification: {verdict}",
        "generator matrix:",
        code.text_grid(),
    ]


def _cmd_weights(args: argparse.Namespace) -> list[str]:
    q, p, k = args.q, args.p, args.k
    check_code_parameters(q, p, k)
    n, dim = p * p, 2 * k
    method = args.method
    if method == "auto":
        method = "brute" if q**dim <= _budget.AUTO_SWEEP_MESSAGES else "formula"
    a_min_formula = min_weight_count_formula(p, q, k)
    group = AbelianGroup((p, p))
    a_min_subsets = (q - 1) * count_subsets(group, dim, group.zero())
    if a_min_formula != a_min_subsets:
        raise CertificationError(
            f"A_min formula {a_min_formula} != (q-1) x subset count {a_min_subsets}"
        )
    if method == "brute":
        dist = weight_distribution_bruteforce(_construct(args).code, budget=args.budget)
        dual = macwilliams_transform(dist, q, dim)
        if dist.counts[n - dim] != a_min_formula:
            raise CertificationError(
                f"measured A_min {dist.counts[n - dim]} != formula {a_min_formula}"
            )
    else:
        dist, dual = nmds_weight_distribution(n, dim, q, a_min_formula)
    if args.json:
        record = {
            "q": q,
            "p": p,
            "k": k,
            "n": n,
            "dim": dim,
            "method": method,
            "a_min": a_min_formula,
            "primal": list(dist.counts),
            "dual": list(dual.counts),
        }
        return [json.dumps(record)]
    return [
        f"code: [{n},{dim},{n - dim}] over F_{q}",
        f"method: {method}",
        f"A_min cross-check: formula {a_min_formula} == (q-1) x subset count"
        f" {a_min_subsets}",
        f"primal: {dist.enumerator()}",
        f"dual:   {dual.enumerator()}",
    ]


def _cmd_verify_design(args: argparse.Namespace) -> list[str]:
    built = _construct(args)
    p, k, t = args.p, args.k, args.t
    iso = built.iso
    primal = min_weight_supports(iso.group, iso.residues, k, budget=args.budget)
    report = verify_design(primal, t, budget=args.budget, complement=args.dual)
    closed = support_coverage(p, k, report.block_size, t) if t <= 2 else None
    match = report.is_design and closed is not None and report.lam == closed
    if report.is_design and closed is not None and report.lam != closed:
        raise CertificationError(
            f"measured lambda {report.lam} != closed form {closed}"
        )
    if args.json:
        record = dict(report.to_json())
        record["lambda_closed_form"] = closed
        record["match"] = match
        return [json.dumps(record)]
    label = f"{t}-({report.v},{report.block_size},{report.lam})" if report.is_design else "not a design"
    return [
        f"block family: {'dual ' if args.dual else ''}minimum-weight supports,"
        f" {report.block_count} blocks of size {report.block_size}",
        f"design: {label}",
        f"simple: {'yes' if report.simple else 'no'}",
        f"lambda measured: {report.lam if report.is_design else '-'}",
        f"lambda closed-form: {closed if closed is not None else 'n/a'}",
        f"verdict: {'design, matches closed form' if match else ('design' if report.is_design else 'not a design')}",
    ]


def _cmd_verify_nmds(args: argparse.Namespace) -> list[str]:
    built = _construct(args)
    code = built.code
    verdict = classify_mds_nmds(built.iso.group, args.k)
    structural = nmds_structural_check(code, budget=args.budget)
    dmin = built.dmin
    if verdict == "NMDS" and not structural:
        raise CertificationError(
            "subset-sum classification says NMDS but the column-rank conditions fail"
        )
    if args.json:
        record = {
            "q": args.q,
            "p": args.p,
            "k": args.k,
            "n": code.n,
            "dim": code.k_dim,
            "dmin": dmin,
            "classification": verdict,
            "structural_check": structural,
        }
        return [json.dumps(record)]
    return [
        f"code: [{code.n},{code.k_dim},{dmin}] over F_{built.curve.field.order}",
        f"classification: {verdict}",
        f"minimum distance: {dmin} (vanishing-codeword witness)",
        f"structural column check: {'pass' if structural else 'fail'}",
    ]


def _cmd_subset_count(args: argparse.Namespace) -> list[str]:
    group = _parse_group(args.group)
    try:
        coords = tuple(int(c) for c in args.x.split(","))
        x = group.element(coords)
    except ValueError as exc:
        raise HypothesisError(f"bad element {args.x!r} for group {args.group}: {exc}") from None
    counter = count_subsets_nonzero if args.nonzero else count_subsets
    value = counter(group, args.k, x)
    lines = [f"count: {value}"]
    record = {
        "group": group.encode(),
        "k": args.k,
        "x": args.x,
        "nonzero": bool(args.nonzero),
        "count": value,
    }
    if args.oracle:
        oracle = brute_force_counts(group, args.k, x, exclude_zero=args.nonzero, budget=args.budget)
        if oracle != value:
            raise CertificationError(f"closed form {value} != subset-sum oracle {oracle}")
        lines.append(f"oracle: {oracle} (match)")
        record["oracle"] = oracle
    if args.json:
        return [json.dumps(record)]
    return lines


def _cmd_table3(args: argparse.Namespace) -> list[str]:
    wanted = None
    if args.rows:
        try:
            wanted = {int(s) for s in args.rows.split(",")}
        except ValueError:
            raise HypothesisError(
                f"--rows needs comma-separated integers, got {args.rows!r}"
            ) from None
        unknown = wanted.difference(q for q, _ in CATALOG_ROWS)
        if unknown:
            raise HypothesisError(
                f"--rows {','.join(map(str, sorted(unknown)))} not in the catalog;"
                f" valid rows: {','.join(str(q) for q, _ in CATALOG_ROWS)}"
            )
    rows = []
    for q, p in CATALOG_ROWS:
        if wanted is not None and q not in wanted:
            continue
        rows.append(build_table_row(q, p, budget=args.budget))
    if args.json:
        return [json.dumps(r) for r in rows]
    lines = [
        f"{'q':>5} {'curve':<22} {'group':<7} {'ext':<12} {'xQ':<4}"
        f" {'code':<16} {'lambda':>8}  mode"
    ]
    for r in rows:
        code = f"[{r['n']},{r['dim']},{r['dmin']}]"
        lines.append(
            f"{r['q']:>5} {r['curve']:<22} {r['group']:<7} {r['ext_modulus']:<12}"
            f" {r['xQ']:<4} {code:<16} {r['design']['lambda']:>8}  {r['design']['mode']}"
        )
    return lines


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--output", help="write output to this file instead of stdout")
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        help="enumeration budget for this invocation (overrides NMDS_BUDGET)",
    )


def _add_code_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=int, required=True, help="field size (prime power)")
    sub.add_argument("--p", type=int, required=True, help="odd prime with p^2 points")
    sub.add_argument("--k", type=int, required=True, help="divisor multiplier, p | k")
    sub.add_argument("--b", type=int, default=None, help="use y^2 = x^3 + b directly")
    sub.add_argument(
        "--ext-poly",
        default=None,
        help="quadratic extension modulus as c0,...,c_{2t} for q = r^t "
        "(constant first, monic)",
    )


@functools.cache  # once per process: building makes a help formatter per option
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmdscodes",
        description="Near-MDS elliptic-curve codes of length p^2 and their designs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("search-params", help="admissible (q, p, t) triples")
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--all-t", action="store_true", help="include t < 1")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_search_params)

    fc = subs.add_parser("find-curve", help="first curve with p^2 rational points")
    fc.add_argument("--q", type=int, required=True)
    fc.add_argument("--p", type=int, required=True)
    _add_common(fc)
    fc.set_defaults(handler=_cmd_find_curve)

    bd = subs.add_parser("build", help="construct the code and print its matrix")
    _add_code_args(bd)
    _add_common(bd)
    bd.set_defaults(handler=_cmd_build)

    wt = subs.add_parser("weights", help="weight distribution of code and dual")
    _add_code_args(wt)
    wt.add_argument(
        "--method",
        choices=("auto", "brute", "formula"),
        default="auto",
        help="brute sweeps all messages; formula uses the distribution recurrences",
    )
    _add_common(wt)
    wt.set_defaults(handler=_cmd_weights)

    vd = subs.add_parser("verify-design", help="certify minimum-weight support designs")
    _add_code_args(vd)
    vd.add_argument("--t", type=int, default=2, help="design strength to verify")
    vd.add_argument(
        "--dual", action="store_true", help="check the complements (dual supports)"
    )
    _add_common(vd)
    vd.set_defaults(handler=_cmd_verify_design)

    vn = subs.add_parser("verify-nmds", help="classify MDS/NMDS and check structure")
    _add_code_args(vn)
    _add_common(vn)
    vn.set_defaults(handler=_cmd_verify_nmds)

    sc = subs.add_parser("subset-count", help="k-subsets of a group summing to x")
    sc.add_argument("--group", required=True, help="e.g. 3x3 or 9")
    sc.add_argument("--k", type=int, required=True)
    sc.add_argument("--x", required=True, help="target element, e.g. 0,0")
    sc.add_argument("--nonzero", action="store_true", help="exclude the zero element")
    sc.add_argument(
        "--oracle", action="store_true", help="cross-check by the subset-sum recurrence"
    )
    _add_common(sc)
    sc.set_defaults(handler=_cmd_subset_count)

    t3 = subs.add_parser("table3", help="catalog of concrete constructions")
    t3.add_argument("--rows", default=None, help="comma-separated q values to include")
    _add_common(t3)
    t3.set_defaults(handler=_cmd_table3)

    t4 = subs.add_parser("table4", help="triples with length exceeding q+1")
    t4.add_argument("--p-max", type=int, default=2000)
    _add_common(t4)
    t4.set_defaults(handler=_cmd_search_params, all_t=False)

    return parser


def _write_lines(out: TextIO, lines: list[str]) -> None:
    """Each line and its newline, one line at a time, so no joined copy
    of the output is made."""
    for line in lines:
        out.write(line)
        out.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Exact counts can pass CPython's int -> str digit limit; the handlers
    # format their own lines, so the limit is lifted for them and the write.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines = args.handler(args)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as out:
                    _write_lines(out, lines)
            except OSError as exc:
                print(f"error: cannot write output: {exc}", file=sys.stderr)
                return 2
        else:
            _write_lines(sys.stdout, lines)
    except HypothesisError as exc:
        print(f"error: hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: enumeration budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"error: certification mismatch: {exc}", file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
