"""Every request of the benchmark's workloads, run through the CLI in
process, matches the exit code and stdout digest recorded for it in
perfbench/references.json, which is only read."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from nmdscodes.cli import main

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

REFERENCES = workloads.load_references()
REQUESTS = [
    argv
    for name in ("catalog", "design", "weights", "extension")
    for argv in workloads.WORKLOADS[name]
]


@pytest.mark.parametrize("argv", REQUESTS, ids=workloads.key)
def test_request_matches_its_recorded_digest(argv, capsys, monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    reference = REFERENCES[workloads.key(argv)]
    assert (code, digest) == (reference["exit"], reference["sha256"])
