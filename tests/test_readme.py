"""The README's Library block runs as written, and the values its
comments state are what the package returns; each of its
`$ nmdscodes ...` transcripts is what the CLI prints."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from nmdscodes import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# each expression's value, as the comment on its line states it
STATED = {
    "c.curve.encode()": "q=7^1;a4=0;b=2",
    "c.dmin": 3,
    "classify_mds_nmds(c.iso.group, 3)": "NMDS",
    "verify_design(primal, 2).lam": 1,
    "verify_design(primal, 2, complement=True).lam": 5,
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


def transcripts(text: str) -> list[tuple[str, list[str]]]:
    """(command, printed lines) of each fenced block that opens with a
    `$ nmdscodes ...` line."""
    found = re.findall(r"^```\n\$ nmdscodes (.*)\n((?:(?!```).*\n)*)```$", text, re.MULTILINE)
    return [(command, body.splitlines()) for command, body in found]


def printed_as_stated(out: str, stated: list[str]) -> bool:
    """Whether out is the stated lines, line by line, where a `...` line
    stands for any run of lines (none included)."""
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in stated)
    return re.fullmatch(pattern, out) is not None


def test_the_transcript_match_elides_runs_of_lines():
    text = "intro\n```\n$ nmdscodes run --x 1\nfirst\n...\nlast\n```\n```sh\n$ other\n```\n"
    [(command, stated)] = transcripts(text)
    assert (command, stated) == ("run --x 1", ["first", "...", "last"])
    assert printed_as_stated("first\nlast\n", stated)
    assert printed_as_stated("first\na\nb\nlast\n", stated)
    assert not printed_as_stated("first\nlast\nmore\n", stated)
    assert not printed_as_stated("first\n", stated)
    assert not printed_as_stated("first\nlast\n", ["first", "lst"])


TRANSCRIPTS = transcripts(README.read_text(encoding="utf-8"))


def test_the_readme_has_nine_transcripts():
    assert len(TRANSCRIPTS) == 9


@pytest.mark.parametrize("command, stated", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_each_transcript_is_what_the_cli_prints(command, stated, capsys, monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    assert cli.main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert printed_as_stated(out, stated), out
