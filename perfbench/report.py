"""Print every benchmark metric, by name and unit, for each workload.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [workload ...]

Runs each workload untraced (end-to-end metrics) and traced (per-layer
metrics), checks every output against its reference, and prints a
span-coverage line: the self times of all spans of the traced requests,
summed across layers, against the wall time of those requests.  The
machine facts and the current src/ line count are printed first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import run
import workloads


def src_lines() -> int:
    src = run.ROOT / "src" / "nmdscodes"
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*",
                    help=f"any of {', '.join(sorted(workloads.WORKLOADS))}; default: {' '.join(names)}")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    import numpy

    facts = json.loads((run.HERE / "facts.json").read_text(encoding="utf-8"))
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()},"
          f" numpy {numpy.__version__} (recorded: {facts['machine']})")
    print(f"src_lines: {src_lines()} (recorded: {facts['src_lines']})")
    ok = True
    for workload in args.workloads or names:
        for trace in (False, True):
            result, notes = run.run(workload, args.seed, args.seconds, trace)
            ok = ok and result["correct"]
            print(f"{workload} trace={int(trace)}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}"
                  f" passes={notes['passes']}")
            for msg in notes["failures"]:
                print(f"  FAIL {msg}")
            for name, m in result["metrics"].items():
                print(f"  {name:56} {m['value']!r:>24} {m['unit']}")
            if "coverage" in notes:
                print(f"  {run.coverage_line(workload, notes)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
