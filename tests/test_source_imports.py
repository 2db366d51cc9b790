"""No module of the package imports a name it never uses or a private
name of another module, no private function or class is left without a
reference in the package, and no public module-level name is left
without a reader outside its definition.  The package __init__
re-exports what it imports, so it is exempt from the unused-import check
and its re-exports read nothing."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nmdscodes"
# texts whose mention of a public name counts as reading it
READERS = (SRC.parent.parent / "README.md", Path(__file__).resolve().parent / "test_acceptance.py")
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


def _references(node: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
    return found


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private (single-underscore, not dunder) functions, methods and
    classes that nothing in sources reads outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            if everywhere[node.name] <= _references(node)[node.name]:
                unused.append(f"{name}:{node.lineno} {node.name}")
    return unused


def test_the_scan_finds_an_unreferenced_private_def():
    sources = {
        "a.py": (
            "def _used(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Helper:\n"
            "    def _method(self): return 2\n"
            "    def __repr__(self): return ''\n"
        ),
        "b.py": "from a import _used\nx = _Helper()._method()\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:2 _recursive"]


def test_every_private_def_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


def private_imports(sources: dict[str, str]) -> list[str]:
    """'module <- name' for each private (single-underscore, not dunder)
    name a module imports from the package, relatively or by its name."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "nmdscodes":
                found += [f"{name.removesuffix('.py')} <- {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_the_scan_finds_a_private_name_imported_across_modules():
    sources = {
        "a.py": "def _helper(): return 1\ndef api(): return _helper()\n",
        "b.py": (
            "from . import budget as _budget\n"
            "from .a import _helper, api\n"
            "from nmdscodes.a import _helper as h\n"
            "from nmdscodes import __version__\n"
            "from numpy import _globals\n"
        ),
    }
    assert private_imports(sources) == ["b <- _helper", "b <- _helper"]


def test_no_private_name_is_imported_across_modules():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert private_imports(sources) == []


def unread_public_defs(sources: dict[str, str], texts: list[str]) -> list[str]:
    """'module:line name' for each public module-level function, class
    or assigned constant of sources that nothing reads outside its own
    definition: not sources (as a name, an attribute or an import) and
    not texts (as a word)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for public in (d for d in defined if not d.startswith("_")):
                if everywhere[public] > _references(node)[public]:
                    continue
                if not any(re.search(rf"\b{public}\b", text) for text in texts):
                    unread.append(f"{name}:{node.lineno} {public}")
    return unread


def test_the_scan_finds_an_unread_public_def():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "UNUSED: int = 4\n"
            "def api(n): return api(n - 1) + LIMIT\n"
            "def documented(): return 1\n"
            "class Used:\n"
            "    def method(self): return 2\n"
        ),
        "b.py": "from a import Used\nvalue = Used().method()\n",
    }
    found = unread_public_defs(sources, ["call `documented()` first"])
    assert found == ["a.py:2 UNUSED", "a.py:3 api", "b.py:2 value"]


# public names that nothing outside their definition reads, each with the
# reason it stays
UNREAD_PUBLIC = {
    "is_design_subset_sums": (
        "states the paper's subset-sum design criterion, and tests use it as a reference"
    ),
}


def test_every_public_def_is_read_or_listed_with_its_reason():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py") if path.name != "__init__.py"}
    texts = [path.read_text(encoding="utf-8") for path in READERS]
    unread = unread_public_defs(sources, texts)
    assert sorted(entry.split()[-1] for entry in unread) == sorted(UNREAD_PUBLIC), unread
