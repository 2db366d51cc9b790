"""Raise-site mutation sweep: which certification checks the tests guard.

    python3 tools/mutants.py [PATH ...]

Each ``raise CertificationError(...)`` statement under src/ (or under the
given paths, relative to the repository root) is replaced by ``pass``,
one at a time, in a temporary copy of the working tree, and the tier-1
suite is run there with ``-x``.  A mutant is killed when the suite
fails.  One line is printed per site, then ``killed K / N``.  A site that
no test kills is a check whose failure nothing would notice.

This runs the whole suite once per site, so it is kept out of tier-1.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="limit the sweep to these files or directories")
    args = parser.parse_args(argv)
    killed = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        if subprocess.run(TIER1, cwd=tree, env=env, capture_output=True).returncode:
            print("the suite fails with no mutant; nothing to measure")
            return 1
        for path in sources(args.paths):
            rel = path.relative_to(ROOT)
            original = path.read_text()
            for site in raise_sites(original):
                (tree / rel).write_text(mutate(original, site))
                try:
                    run = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True)
                finally:
                    (tree / rel).write_text(original)
                total += 1
                killed += run.returncode != 0
                print(f"{rel}:{site[0]} {'killed' if run.returncode else 'SURVIVED'}", flush=True)
    print(f"killed {killed} / {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
