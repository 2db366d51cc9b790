"""No module of the package imports a name it never uses or a private
name of another module, no private function or class is left without a
reference in the package, no public module-level name is left without a
reader outside its definition, no function leaves a parameter unread,
no dataclass field goes unread as an attribute, no float touches the
package's arithmetic, and each unsigned dtype is listed with the reason
it never meets a signed operand.  The package __init__ re-exports what
it imports, so it is exempt from the unused-import check and its
re-exports read nothing."""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
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


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """'module:line function(parameter)' for each parameter of a function
    or lambda of sources that its body never reads as a name."""
    unread = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
            label = getattr(node, "name", "<lambda>")
            unread += [f"{name}:{node.lineno} {label}({p})" for p in params if p not in read]
    return unread


def test_the_scan_finds_an_unread_parameter():
    sources = {
        "a.py": (
            "def f(a, b: int = 0, *rest, key=None, **extra) -> int:\n"
            "    return a + len(rest) + len(extra)\n"
            "class C:\n"
            "    def m(self, x): return self\n"
            "g = lambda x, y: x\n"
            "def h(n, *, step=1): return sorted(range(0, n, step), key=lambda v: -v)\n"
        ),
    }
    assert unread_parameters(sources) == [
        "a.py:1 f(b)", "a.py:1 f(key)", "a.py:4 m(x)", "a.py:5 <lambda>(y)",
    ]


def test_every_parameter_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unread_parameters(sources) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(sources: dict[str, str], readers: list[str], texts: list[str]) -> list[str]:
    """'module:line Class.field' for each field of a dataclass of sources
    that nothing reads as an attribute: not sources or readers (as a
    loaded attribute) and not texts (as '.field')."""
    read = {sub.attr for text in [*sources.values(), *readers] for sub in ast.walk(ast.parse(text))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                field = stmt.target.id
                if field not in read and not any(re.search(rf"\.{field}\b", t) for t in texts):
                    unread.append(f"{name}:{stmt.lineno} {node.name}.{field}")
    return unread


def test_the_scan_finds_an_unread_dataclass_field():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\n"
            "class A:\n"
            "    used: int\n"
            "    tested: int\n"
            "    documented: int\n"
            "    unread: int = 0\n"
            "    def total(self): return self.used\n"
            "@dataclasses.dataclass\n"
            "class B:\n"
            "    written: int\n"
            "    def set(self): self.written = 1\n"
            "class NotData:\n"
            "    plain: int\n"
        ),
    }
    readers = ["assert A(1, 2, 3).tested == 2\n"]
    found = unread_fields(sources, readers, ["`a.documented` is the third"])
    assert found == ["a.py:8 A.unread", "a.py:12 B.written"]


def test_every_dataclass_field_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    tests = Path(__file__).resolve().parent
    readers = [path.read_text(encoding="utf-8") for path in tests.glob("*.py")]
    assert unread_fields(sources, readers, [READERS[0].read_text(encoding="utf-8")]) == []


# -- exactness: no float touches a certified quantity --------------------

FLOAT_NAMES = re.compile(r"(float|complex|double|half|single|longdouble|longfloat)\d*")
UNSIGNED_NAMES = re.compile(r"(uint|ubyte|ushort|uintc|uintp|ulonglong)\d*")
# math functions that take and return ints; every other one returns a float
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
# numpy functions whose results are floats on integer input
FLOAT_NUMPY = {
    "average", "divide", "exp", "inf", "linspace", "log", "log10", "log2", "mean", "median",
    "nan", "pi", "sqrt", "std", "true_divide", "var",
}
# calls whose first argument is a dtype
DTYPE_CALLS = {"astype", "dtype", "view"}


def _dtype_kind(node: ast.AST) -> str | None:
    """numpy's kind letter of a string dtype such as '<u8', else None."""
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return None
    try:
        return np.dtype(node.value).kind
    except TypeError:
        return None


class _ExactnessScan(ast.NodeVisitor):
    """Collects 'module:function text' of each float site and each
    unsigned dtype site; function is the innermost def, <module> at top
    level."""

    def __init__(self, module: str) -> None:
        self.module, self.where = module, ["<module>"]
        self.floats, self.unsigned = [], []

    def _site(self, node: ast.AST) -> str:
        return f"{self.module}:{self.where[-1]} {ast.unparse(node)}"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            self.floats.append(self._site(node))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            self.floats.append(self._site(node))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, (float, complex)):
            self.floats.append(self._site(node))

    def visit_Name(self, node: ast.Name) -> None:
        if FLOAT_NAMES.fullmatch(node.id):
            self.floats.append(self._site(node))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        if FLOAT_NAMES.fullmatch(node.attr) or (owner == "math" and node.attr not in EXACT_MATH):
            self.floats.append(self._site(node))
        elif owner == "np" and node.attr in FLOAT_NUMPY:
            self.floats.append(self._site(node))
        elif UNSIGNED_NAMES.fullmatch(node.attr):
            self.unsigned.append(self._site(node))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "math":
            self.floats += [f"{self.module}:{self.where[-1]} math.{alias.name}"
                            for alias in node.names if alias.name not in EXACT_MATH]

    def visit_Call(self, node: ast.Call) -> None:
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        dtypes += node.args[:1] if name in DTYPE_CALLS else []
        for kind, dtype in ((_dtype_kind(d), d) for d in dtypes):
            if kind in ("f", "c"):
                self.floats.append(self._site(dtype))
            elif kind == "u":
                self.unsigned.append(self._site(dtype))
        if name == "min_scalar_type":  # its sign follows its argument's
            self.unsigned.append(self._site(node))
        self.generic_visit(node)


def exactness_sites(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(float sites, unsigned dtype sites) of sources, each as
    'module:function text'.  A float site is a true division, a float
    or complex literal, a float or complex name (float(...), np.float64,
    dtype=float), a float dtype string, a math function that returns a
    float, or a numpy function that does on integers.  An unsigned site
    is an unsigned numpy type or dtype string, or a min_scalar_type call."""
    floats, unsigned = [], []
    for name, text in sources.items():
        scan = _ExactnessScan(name.removesuffix(".py"))
        scan.visit(ast.parse(text))
        floats += scan.floats
        unsigned += scan.unsigned
    return floats, unsigned


def test_the_scan_finds_every_float_and_unsigned_site():
    sources = {
        "a.py": (
            "import math\n"
            "import numpy as np\n"
            "from math import comb, log2\n"
            "HALF = 1 / 2\n"
            "WORD = np.dtype('<u8')\n"
            "def f(n, a):\n"
            "    n /= 3\n"
            "    b = a.astype('f8') + np.zeros(n, dtype=np.float32) + float(n) + 2e0\n"
            "    c = math.sqrt(n) + math.isqrt(n) + comb(n, 2) + np.mean(a) + n // 2\n"
            "    return np.zeros(n, dtype=np.uint8).view('u2'), np.min_scalar_type(n), b, c\n"
            "def g(a):\n"
            "    return a.view(np.int8), np.zeros(3, dtype='<i8'), np.int64(1) << 3, 'f8', 1j\n"
        ),
    }
    floats, unsigned = exactness_sites(sources)
    assert sorted(floats) == sorted([
        "a:<module> math.log2", "a:<module> 1 / 2", "a:f n /= 3", "a:f 'f8'", "a:f np.float32",
        "a:f float", "a:f 2.0", "a:f math.sqrt", "a:f np.mean", "a:g 1j",
    ])
    assert sorted(unsigned) == sorted([
        "a:<module> '<u8'", "a:f np.uint8", "a:f 'u2'", "a:f np.min_scalar_type(n)",
    ])


# every unsigned dtype site of src/, with the reason it never meets a
# signed operand (numpy would promote the pair to a float or a wider type)
UNSIGNED_SITES = {
    "subset_designs:<module> '<u8'": (
        "WORD, the block-row word: rows meet only rows and WORD constants, in |, ^, &"
        " and comparisons, and are otherwise read as bytes or bits"
    ),
    "subset_designs:_half_tables np.uint64": "one bit, ORed into a WORD row",
    "subset_designs:mask_positions np.uint8": "a byte view of a WORD row, unpacked to bits",
    "subset_designs:_columns np.uint8": (
        "a byte view of WORD rows, one byte column copied into a zeroed buffer, masked by"
        " a nonnegative Python int below 256 and packed into a preallocated byte table"
    ),
    "subset_designs:_columns np.uint64": "the packed column bytes read as words, ANDed and popcounted",
    "subset_designs:__post_init__ np.min_scalar_type(-64 * words.shape[1] - 1)": (
        "signed, as its argument is negative: popcount sums 0..64 W, incremented by the"
        " uint8 popcounts of WORD columns and compared only with the int block size"
    ),
    "subset_designs:_subset_sum_masks np.min_scalar_type((k + 1) * order)": (
        "the left keys size |G| + index, all in 0..(k + 1)|G|: the right partners are cast"
        " to the same dtype from nonnegative int64 and are only compared and searched"
    ),
    "subset_designs:_subset_sum_masks np.min_scalar_type(-max(total, len(lrows)))": (
        "signed, as its argument is negative: the row indices of the join"
    ),
    "code_analysis:_vanishing_counts np.min_scalar_type(q - 1)": (
        "residues 0..q-1 of the low and negated high message spans, compared only with"
        " each other"
    ),
    "code_analysis:_vanishing_counts np.min_scalar_type(n)": (
        "vanishing counts 0..n, incremented by bools, then bincounted (cast to intp) or"
        " compared with n - w >= 0"
    ),
    "code_analysis:supports_of_weight np.uint8": "packbits bytes, viewed as WORD rows",
}


def test_no_float_touches_src_and_every_unsigned_site_is_listed():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    floats, unsigned = exactness_sites(sources)
    assert floats == []
    assert sorted(set(unsigned)) == sorted(UNSIGNED_SITES)
