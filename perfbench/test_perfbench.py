"""Quick tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_named_metric(trace, listed):
    proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(workloads.WORKLOADS["smoke"])
    expected = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["error_rate"]["value"] == 0
        assert "coverage smoke:" in proc.stderr


def test_every_request_has_a_reference():
    refs = workloads.load_references()
    for reqs in workloads.WORKLOADS.values():
        for argv in reqs:
            assert refs[workloads.key(argv)]["exit"] == 0


def _namespaces() -> dict[tuple[str, str], object]:
    """(owner, attribute) -> value for every nmdscodes module and class."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "nmdscodes" or modname.startswith("nmdscodes."):
            owners = [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__ == modname]
            for owner in owners:
                for attr, value in vars(owner).items():
                    out[(f"{modname}:{getattr(owner, '__qualname__', '')}", attr)] = value
    return out


def test_tracer_rebinds_aliases_and_restores_every_name():
    from nmdscodes import cli, subset_designs
    from nmdscodes.elliptic_curve import Curve

    before = _namespaces()
    original_count = subset_designs.count_subsets_full
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.count_subsets is subset_designs.count_subsets_full
        assert cli.count_subsets is not original_count
        assert Curve.points.__wrapped__ is before[("nmdscodes.elliptic_curve:Curve", "points")]
        with t.span(tracer.REQUEST_SPAN):
            assert cli.main(["subset-count", "--group", "3x3", "--k", "3", "--x", "0,0"]) == 0
    finally:
        t.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    metrics = t.metrics()
    assert metrics["subset_designs.count_subsets_full.calls"] == 1
    assert set(metrics) == set(tracer.metric_units())


def test_two_seeds_give_same_outputs_in_another_order():
    first = workloads.requests("smoke", 0)
    seed = next(s for s in range(1, 50) if workloads.requests("smoke", s) != first)
    assert sorted(map(workloads.key, first)) == sorted(
        map(workloads.key, workloads.requests("smoke", seed)))
    deadline = time.perf_counter() + 120
    a = run.run_child("smoke", 0, "run", deadline)
    b = run.run_child("smoke", seed, "run", deadline)
    assert [r["argv"] for r in a["requests"]] != [r["argv"] for r in b["requests"]]
    digests = [{workloads.key(r["argv"]): r["sha256"] for r in p["requests"]} for p in (a, b)]
    assert digests[0] == digests[1]
    assert len(digests[0]) == len(first)


def test_speed_probe_leaves_outputs_alone_and_is_taken_out_of_the_times():
    p = run.run_child("smoke", 2, "run", time.perf_counter() + 120, speed=True)
    assert run._failures([p], workloads.requests("smoke", 2)) == []
    done = p["done"]
    assert done["rate"] > 0 and done["setup_rate"] > 0
    assert 0 < done["probe_s"] < done["wall_s"]
    assert run.at_reference_speed(2.0, 2 * run.REFERENCE_RATE) == 4.0


def test_deadline_kills_child_and_counts_unfinished_requests():
    start = time.perf_counter()
    p = run.run_child("design", 1, "run", time.perf_counter() + 0.2)
    assert p["timed_out"] and p["exit"] != 0
    assert time.perf_counter() - start < 30
    reqs = workloads.requests("design", 1)
    assert len(run._failures([p], reqs)) == len(reqs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
