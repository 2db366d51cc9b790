"""Mutation sweep: which certification checks and which arithmetic the
tests guard.

    python3 tools/mutants.py [PATH ...]

Each ``raise CertificationError(...)`` statement under src/ (or under the
given paths, relative to the repository root) is replaced by ``pass``,
one at a time, in a temporary copy of the working tree, and the tier-1
suite is run there with ``-x``.  Then each edit of ARITHMETIC whose file
lies under those paths is made in the same way.  A mutant is killed when
the suite fails.  One line is printed per mutant, then ``killed K / N``
for the raise sites and for the arithmetic edits.  A mutant that no test
kills is a fault that nothing would notice, so the sweep exits 1 when any
mutant survives (and when the suite fails with none), and 0 when every
mutant is killed: it can gate a run.

This runs the whole suite once per mutant, so it is kept out of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")

# (file, old, new): arithmetic faults, each old text found exactly once in its file
ARITHMETIC = [
    # the tangent slope (3 x^2 + a4) / 2y read as (2 x^2 + a4) / 2y
    ("src/nmdscodes/elliptic_curve.py", "[3 * c + a for", "[2 * c + a for"),
    # a point of order 2 doubled by the tangent instead of sent to infinity
    ("src/nmdscodes/elliptic_curve.py", "if y1 != y2 or not any(y1):", "if y1 != y2:"),
    # the Moebius function without its sign
    ("src/nmdscodes/numtheory.py", "mu = -mu", "mu = mu"),
    # _certify_rank returning the word u0 G even when it is zero
    ("src/nmdscodes/code_builder.py", "if word.any():\n            return word", "return word"),
    # _certify_rank returning None (full rank) without the rank check
    ("src/nmdscodes/code_builder.py",
     "elif not len(ker) or rank(mat, spec) * m == len(mat):", "else:"),
    # _columns reading point i from byte column i // 16 instead of i // 8
    ("src/nmdscodes/subset_designs.py", "by_byte[:, i >> 3]", "by_byte[:, i >> 4]"),
    # _columns complementing every bit of the last packed byte, the padding
    # blocks past b included, instead of its high b % 8 live bits
    ("src/nmdscodes/subset_designs.py", "0xFF00 >> (b & 7) & 0xFF", "0xFF"),
    # kept reading a result back under any budget limit, not only under the
    # one that admitted its work: a request would then depend on the ones before
    ("src/nmdscodes/budget.py", "key = (*key, limit)", "key = (*key,)"),
]


def raise_sites(source: str) -> list[tuple[int, int, int, int]]:
    """(line, col, end_line, end_col) of every ``raise CertificationError(...)``
    statement in source, in order; lines count from 1, columns from 0."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id == "CertificationError"):
            sites.append((node.lineno, node.col_offset, node.end_lineno, node.end_col_offset))
    return sorted(sites)


def mutate(source: str, site: tuple[int, int, int, int]) -> str:
    """source with the raise statement at site replaced by ``pass``."""
    line, col, end_line, end_col = site
    lines = source.splitlines(keepends=True)
    head, tail = lines[line - 1][:col], lines[end_line - 1][end_col:]
    return "".join(lines[: line - 1] + [head + "pass" + tail] + lines[end_line:])


def sources(paths: list[str]) -> list[Path]:
    """The .py files under src/ that lie under one of paths (all if none)."""
    roots = [(ROOT / p).resolve() for p in paths]
    return [f for f in sorted((ROOT / "src").rglob("*.py"))
            if not roots or any(f == r or r in f.parents for r in roots)]


def apply(source: str, old: str, new: str) -> str:
    """source with its one occurrence of old replaced by new."""
    if source.count(old) != 1:
        raise ValueError(f"{old!r} occurs {source.count(old)} times, not once")
    return source.replace(old, new)


def run_suite(tree: Path, env: dict[str, str]) -> bool:
    """Whether the tier-1 suite passes in tree."""
    return subprocess.run(TIER1, cwd=tree, env=env, capture_output=True).returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="limit the sweep to these files or directories")
    args = parser.parse_args(argv)
    files = sources(args.paths)
    mutants = [(f.relative_to(ROOT), f":{site[0]}", mutate(f.read_text(), site))
               for f in files for site in raise_sites(f.read_text())]
    edits = [(Path(rel), f": {old!r} -> {new!r}", apply((ROOT / rel).read_text(), old, new))
             for rel, old, new in ARITHMETIC if ROOT / rel in files]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        if not run_suite(tree, env):
            print("the suite fails with no mutant; nothing to measure")
            return 1
        survived = 0
        for kind, batch in (("raise sites", mutants), ("arithmetic edits", edits)):
            killed = 0
            for rel, where, mutated in batch:
                original = (tree / rel).read_text()
                (tree / rel).write_text(mutated)
                try:
                    passed = run_suite(tree, env)
                finally:
                    (tree / rel).write_text(original)
                killed += not passed
                print(f"{rel}{where} {'SURVIVED' if passed else 'killed'}", flush=True)
            print(f"killed {killed} / {len(batch)} {kind}")
            survived += len(batch) - killed
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
