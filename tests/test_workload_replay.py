"""Every request of the benchmark's workloads, run through the CLI in
process, matches the exit code and stdout digest recorded for it in
perfbench/references.json, which is only read: each on its own, and
each workload as one process runs it, in seed-1 and seed-2 order, with
the memos kept from the requests before."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from nmdscodes import param_search, subset_designs
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


def _outcome(argv, capsys) -> tuple[int, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def _reference(argv) -> tuple[int, str]:
    reference = REFERENCES[workloads.key(argv)]
    return reference["exit"], reference["sha256"]


@pytest.mark.parametrize("argv", REQUESTS, ids=workloads.key)
def test_request_matches_its_recorded_digest(argv, capsys, monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    assert _outcome(argv, capsys) == _reference(argv)


# (curves certified, subset families listed) in one pass: the design
# workload asks for q = 31 and its supports three times
WORK = {"catalog": (6, 2), "design": (3, 3), "weights": (2, 0), "extension": (1, 0)}


def _counted(monkeypatch, module, name: str) -> list:
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", WORK)
def test_a_pass_with_live_memos_matches_the_recorded_digests(name, seed, capsys, monkeypatch):
    monkeypatch.delenv("NMDS_BUDGET", raising=False)
    certified = _counted(monkeypatch, param_search, "verify_curve")
    listed = _counted(monkeypatch, subset_designs, "_subset_sum_masks")
    for argv in workloads.requests(name, seed):
        assert _outcome(argv, capsys) == _reference(argv), argv
    assert (len(certified), len(listed)) == WORK[name]
