"""The README's Library block runs as written, and the values its
comments state are what the package returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# each expression's value, as the comment on its line states it
STATED = {
    "c.curve.encode()": "q=7^1;a4=0;b=2",
    "c.dmin": 3,
    "classify_mds_nmds(c.iso.group, 3)": "NMDS",
    "verify_design(primal, 2).lam": 1,
    "cert.lambda_primal": 1,
    "count_subsets_full(group, 3, group.zero())": 12,
    "lambda_closed_form(3, 3)": 1,
}


def test_the_library_block_runs_and_returns_what_its_comments_state():
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, seen = {}, {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if source in STATED:
            comment = lines[stmt.end_lineno - 1].split("#", 1)[1]
            seen[source] = ast.literal_eval(re.split("[:,]", comment, maxsplit=1)[0].strip())
            assert eval(source, namespace) == seen[source], source
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert seen == STATED
