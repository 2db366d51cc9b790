"""perfbench/tracer.py rebinds the functions its TARGETS name; each must
exist in the package as a plain function of its module or class."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

ENTRIES = [(mod, target) for mod, targets in tracer.TARGETS.items() for target in targets]


@pytest.mark.parametrize("mod, target", ENTRIES, ids=[f"{m}.{t}" for m, t in ENTRIES])
def test_tracer_target_is_a_plain_function_of_its_owner(mod, target):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
    *path, attr = target.split(".")
    for part in path:
        owner = vars(owner)[part]
        assert inspect.isclass(owner) and owner.__module__ == f"{tracer.PACKAGE}.{mod}"
    assert inspect.isfunction(vars(owner).get(attr)), f"{mod}.{target}"
