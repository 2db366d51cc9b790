"""A/B comparison of the benchmark's end-to-end metrics, as one JSON file.

    python3 tools/bench_summary.py --parent HEAD~1 --out BENCH_<PR>.json

The parent revision is exported with ``git archive`` into a temporary
directory; the change is the working tree.  For every workload of
BENCHMARK.json, PAIRS pairs of ``perfbench/run.py --trace 0`` runs are
made at the benchmark's ``run_seconds``, seeds 1..PAIRS, and the side
that runs first alternates from pair to pair, so a drift in the host's
speed falls on both.  The last line each run prints is its result
object.

For each workload and metric the summary holds each side's runs, median
and quartiles, the pairs the change won (ties count for neither), the
change of the median against the parent's, and a verdict: "better" or
"worse" when one side won at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range, otherwise
"unresolved".  "within_bound" says whether the change's median is no
worse than the parent's by more than the benchmark's bound.  The line
count of src/ on each side is recorded too.

The summary is always written, but the exit status is 1 when any run of
the change reads "correct": false or counts a failed request, since a
time measured on wrong output is no gain.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args: str) -> bytes:
    """stdout of git run on this repository."""
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> Path:
    """The tree of rev, unpacked into dest."""
    with tarfile.open(fileobj=BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def src_lines(tree: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (tree / "src").rglob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that run.py prints last."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def side(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "quartiles": [q1, q3], "runs": values}


def compare(parent: list[float], change: list[float], metric: dict) -> dict:
    """The two sides of one metric, and how they compare."""
    sign = 1 if metric["better"] == "lower" else -1
    a, b = side(parent), side(change)
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    gap = sign * (a["median"] - b["median"])  # > 0 when the change is better
    spread = a["quartiles"][1] - a["quartiles"][0]
    verdict = "unresolved"
    if won >= 0.9 * len(parent) and gap > spread:
        verdict = "better"
    elif lost >= 0.9 * len(parent) and -gap > spread:
        verdict = "worse"
    return {
        "parent": a,
        "change": b,
        "change_vs_parent": b["median"] / a["median"] - 1,
        "pairs_won": won,
        "pairs_lost": lost,
        "verdict": verdict,
        "within_bound": -gap <= metric["bound"] * a["median"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp)), "change": ROOT}
        summary = {
            "parent": git("rev-parse", "--short", args.parent).decode().strip(),
            "host": {
                "cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": metadata.version("numpy"),
            },
            "pairs": PAIRS,
            "seconds": seconds,
            "src_lines": {name: src_lines(tree) for name, tree in trees.items()},
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            results = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for name in order:
                    results[name].append(run_once(trees[name], workload, seed, seconds))
            entry = {
                "correct": {n: all(r["correct"] for r in rs) for n, rs in results.items()},
                "failed": {n: sum(r["failed"] for r in rs) for n, rs in results.items()},
            }
            for metric in bench["end_to_end"]:
                name = metric["name"]
                parent, change = ([r["metrics"][name]["value"] for r in results[n]]
                                  for n in ("parent", "change"))
                e = entry[name] = compare(parent, change, metric)
                print(f"{workload} {name}: {e['change_vs_parent']:+.1%},"
                      f" won {e['pairs_won']}/{PAIRS}, {e['verdict']}", file=sys.stderr)
            summary["workloads"][workload] = entry
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    bad = [w for w, e in summary["workloads"].items()
           if not e["correct"]["change"] or e["failed"]["change"]]
    if bad:
        print(f"change runs incorrect or failing on: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
