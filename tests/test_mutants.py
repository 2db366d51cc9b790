"""tools/mutants.py: the raise sites it finds, its arithmetic edits, the
mutants it writes and its exit code.  The sweep itself runs the suite
once per mutant, so it runs here only with a stubbed suite."""

import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SAMPLE = '''\
def f(x):
    if x < 0: raise CertificationError("negative")
    if x > 9:
        raise CertificationError(
            f"too big: {x}"
        )
    raise ValueError("not a site")
    raise CertificationError  # not a call, so not a site
'''


def test_sites_are_the_raise_statements_of_certification_errors():
    assert mutants.raise_sites(SAMPLE) == [(2, 14, 2, 50), (4, 8, 6, 9)]
    assert mutants.mutate(SAMPLE, (2, 14, 2, 50)).splitlines()[1] == "    if x < 0: pass"
    lines = mutants.mutate(SAMPLE, (4, 8, 6, 9)).splitlines()
    assert lines[2:5] == ["    if x > 9:", "        pass", '    raise ValueError("not a site")']


def test_every_raise_in_src_is_a_site_and_each_mutant_parses():
    files = mutants.sources([])
    assert files and all(f.suffix == ".py" for f in files)
    total = 0
    for path in files:
        source = path.read_text()
        sites = mutants.raise_sites(source)
        assert len(sites) == len(re.findall(r"raise CertificationError\(", source)), path
        for site in sites:  # raise_sites parses each mutant
            assert len(mutants.raise_sites(mutants.mutate(source, site))) == len(sites) - 1
        total += len(sites)
    assert total
    analysis = mutants.ROOT / "src" / "nmdscodes" / "code_analysis.py"
    assert mutants.sources(["src/nmdscodes/code_analysis.py"]) == [analysis]


def test_each_arithmetic_edit_matches_one_place_and_parses():
    assert mutants.ARITHMETIC
    for rel, old, new in mutants.ARITHMETIC:
        source = (mutants.ROOT / rel).read_text()
        assert source.count(old) == 1, (rel, old)
        mutated = mutants.apply(source, old, new)
        compile(mutated, rel, "exec")
        assert mutated != source
    with pytest.raises(ValueError, match="occurs 2 times, not once"):
        mutants.apply("x = 1\nx = 1\n", "x = 1", "x = 2")


_SWEPT = "src/nmdscodes/code_builder.py"


def _mutant_count(rel):
    """The raise sites and arithmetic edits that a sweep of rel runs."""
    sites = mutants.raise_sites((mutants.ROOT / rel).read_text())
    return len(sites) + sum(edit[0] == rel for edit in mutants.ARITHMETIC)


@pytest.mark.parametrize("survivor, code", [("none", 0), ("first", 1), ("last", 1), ("clean", 1)])
def test_the_sweep_exits_1_unless_every_mutant_is_killed(monkeypatch, capsys, survivor, code):
    # a stubbed suite: it passes on the unmutated tree and fails on every
    # mutant but the survivor, or ("clean") fails on the unmutated tree
    n = _mutant_count(_SWEPT)
    assert n >= 2
    mutant_runs = [False] * n
    if survivor in ("first", "last"):
        mutant_runs[0 if survivor == "first" else -1] = True
    runs = iter([survivor != "clean"] + mutant_runs)
    monkeypatch.setattr(mutants, "run_suite", lambda tree, env: next(runs))
    assert mutants.main([_SWEPT]) == code
    out = capsys.readouterr().out
    if survivor == "clean":
        assert out == "the suite fails with no mutant; nothing to measure\n"
    else:
        assert next(runs, None) is None  # one run per mutant
        assert out.count("SURVIVED") == (survivor != "none")
