"""tools/bench_summary.py: the pair verdicts of compare, and the exit
status of main when a run of the change is wrong or fails."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)

LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}

# ten parent runs: median 1.045, quartiles 1.0175 and 1.0725 (IQR 0.055)
PARENT = [1.0 + 0.01 * i for i in range(10)]


def _shifted(delta, lost_pair=9):
    """PARENT moved by delta, except one pair moved by +0.01 instead."""
    return [p + (0.01 if i == lost_pair else delta) for i, p in enumerate(PARENT)]


def test_nine_pairs_won_and_a_gap_past_the_iqr_is_better():
    e = bench_summary.compare(PARENT, _shifted(-0.1), LOWER)
    assert (e["pairs_won"], e["pairs_lost"]) == (9, 1)
    assert e["parent"]["median"] == pytest.approx(1.045)
    assert e["parent"]["quartiles"] == pytest.approx([1.0175, 1.0725])
    assert e["verdict"] == "better" and e["within_bound"]


def test_nine_pairs_won_inside_the_iqr_is_unresolved():
    e = bench_summary.compare(PARENT, _shifted(-0.01), LOWER)
    assert (e["pairs_won"], e["pairs_lost"]) == (9, 1)
    assert e["verdict"] == "unresolved"


def test_eight_pairs_won_past_the_iqr_is_unresolved():
    change = _shifted(-0.1)
    change[0] = PARENT[0]  # a tie counts for neither side
    e = bench_summary.compare(PARENT, change, LOWER)
    assert (e["pairs_won"], e["pairs_lost"]) == (8, 1)
    assert e["verdict"] == "unresolved"


def test_every_pair_lost_past_the_iqr_is_worse():
    e = bench_summary.compare(PARENT, [p + 0.1 for p in PARENT], LOWER)
    assert (e["pairs_won"], e["pairs_lost"]) == (0, 10)
    assert e["verdict"] == "worse"
    assert e["change_vs_parent"] == pytest.approx(0.1 / 1.045)


def test_higher_is_better_flips_the_sign():
    lower_runs = bench_summary.compare(PARENT, _shifted(-0.1), HIGHER)
    assert (lower_runs["pairs_won"], lower_runs["pairs_lost"]) == (1, 9)
    assert lower_runs["verdict"] == "worse"
    higher_runs = bench_summary.compare(PARENT, [p + 0.1 for p in PARENT], HIGHER)
    assert higher_runs["pairs_won"] == 10 and higher_runs["verdict"] == "better"
    assert higher_runs["within_bound"]


@pytest.mark.parametrize("metric", [LOWER, HIGHER], ids=["lower", "higher"])
def test_within_bound_holds_at_the_edge_and_fails_past_it(metric):
    # binary fractions, so the edge is exact: a 25% move against a 0.25 bound
    parent = [2.0] * 10
    worse = 0.5 if metric["better"] == "lower" else -0.5
    step = worse / 2**20
    assert bench_summary.compare(parent, [2.0 + worse] * 10, metric)["within_bound"]
    assert not bench_summary.compare(parent, [2.0 + worse + step] * 10, metric)["within_bound"]


def _fake_runs(monkeypatch, bad_run):
    """main on synthetic results: the change runs 10% faster, and
    bad_run(workload, seed) gives the change's correct and failed."""

    def run_once(tree, workload, seed, seconds):
        value = 1.0 + seed / 100
        correct, failed = True, 0
        if tree == bench_summary.ROOT:
            value *= 0.9
            correct, failed = bad_run(workload, seed)
        metrics = {"wall_s": value, "setup_s": value, "peak_rss_mib": 40 * value}
        return {"correct": correct, "failed": failed,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(bench_summary, "run_once", run_once)
    monkeypatch.setattr(bench_summary, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_summary, "git", lambda *args: b"abc1234\n")


@pytest.mark.parametrize(
    "bad_run, bad",
    [
        (lambda w, s: (True, 0), None),
        (lambda w, s: (w != "design" or s != 3, 0), "design"),
        (lambda w, s: (True, int(w == "weights" and s == 10)), "weights"),
    ],
    ids=["all-good", "one-incorrect-run", "one-failed-request"],
)
def test_main_writes_the_summary_and_exits_nonzero_on_bad_change_runs(
    monkeypatch, tmp_path, capsys, bad_run, bad
):
    _fake_runs(monkeypatch, bad_run)
    out = tmp_path / "bench.json"
    assert bench_summary.main(["--parent", "HEAD", "--out", str(out)]) == (bad is not None)
    summary = json.loads(out.read_text())
    assert summary["parent"] == "abc1234"
    for workload, entry in summary["workloads"].items():
        # the times alone would read as a gain on every workload
        assert entry["wall_s"]["verdict"] == "better"
        assert entry["correct"] == {"parent": True, "change": workload != bad or bad != "design"}
        assert entry["failed"] == {"parent": 0, "change": int(workload == bad == "weights")}
    last = capsys.readouterr().err.splitlines()[-1]
    assert (last == f"change runs incorrect or failing on: {bad}") == (bad is not None)
