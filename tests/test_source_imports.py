"""No module of the package imports a name it never uses.  The package
__init__ re-exports what it imports, so it is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nmdscodes"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _names(node: ast.AST) -> set[str]:
    """Every name node reads, quoted annotations included."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = sub.returns if isinstance(sub, ast.FunctionDef) else sub.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                found |= _names(ast.parse(note.value, mode="eval"))
    return found


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import_and_passes_a_used_one():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from math import comb, gcd\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return comb(np.int64(4), 2)\n"
    )
    assert unused_imports(source) == ["gcd (line 3)"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []
