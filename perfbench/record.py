"""Record the reference output digest of every benchmark request.

    PYTHONPATH=src python3 perfbench/record.py

Writes references.json: for each request, the sha256 of its standard
output and the expected exit code 0.  Run it only when a change is meant
to alter outputs; the benchmark rejects every other difference.
"""

from __future__ import annotations

import json
import sys

import workloads
from child import run_request


def main() -> int:
    from nmdscodes import cli

    refs = {}
    for name, reqs in workloads.WORKLOADS.items():
        for argv in reqs:
            result = run_request(cli.main, argv)
            if result["exit"] != 0:
                print(f"{workloads.key(argv)!r} exited {result['exit']}: {result['error']}",
                      file=sys.stderr)
                return 1
            refs[workloads.key(argv)] = {"sha256": result["sha256"], "exit": 0}
            print(f"{name:10} {result['seconds']:8.3f} s  {workloads.key(argv)}", file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
