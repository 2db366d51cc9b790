"""tools/mutants.py: the raise sites it finds, its arithmetic edits and
the mutants it writes.  The sweep itself runs the suite once per mutant,
so it is not run here."""

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
