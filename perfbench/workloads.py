"""Request lists of the benchmark workloads and their recorded references.

Each request is an argv list for ``nmdscodes.cli.main``.  The workload
seed only permutes the order of a fixed list, so every seed issues the
same requests and must produce the same outputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# Prime-field catalog rows whose design mode is theory-implied or tiny:
# construction does nearly all the work, subset enumeration none.
CATALOG_ROWS = (7, 13, 43, 157, 307, 3541)

# Every admissible (q, p) with p <= 19.  Rows with q >= 1723 are left out
# because `weights` on them takes minutes (73 s at q=1723).
WEIGHT_ROWS = ((7, 3), (13, 3), (31, 5), (43, 7), (157, 13), (307, 17), (343, 19))


def _code(cmd: str, q: int, p: int, k: int, *extra: str) -> list[str]:
    return [cmd, "--q", str(q), "--p", str(p), "--k", str(k), *extra]


def _subset_count(group: str, k: int, x: str, *extra: str) -> list[str]:
    return ["subset-count", "--group", group, "--k", str(k), "--x", x,
            "--oracle", *extra, "--json"]


WORKLOADS: dict[str, list[list[str]]] = {
    "catalog": [["table3", "--rows", str(q), "--json"] for q in CATALOG_ROWS],
    "design": [
        ["table3", "--rows", "31", "--json"],
        _code("verify-design", 31, 5, 5, "--json"),
        _code("verify-design", 31, 5, 5, "--dual", "--json"),
        _code("verify-design", 7, 3, 3, "--json"),
        _code("verify-design", 13, 3, 3, "--json"),
        _subset_count("5x5", 10, "0,0"),
        _subset_count("5x5", 10, "1,2"),
        _subset_count("4x4", 8, "0,0", "--nonzero"),
        _subset_count("16", 8, "1"),
        _subset_count("2x2x4", 8, "1,0,3"),
    ],
    "weights": [
        _code("weights", q, p, k, "--json")
        for q, p in WEIGHT_ROWS
        for k in range(p, p * (p - 1) // 2 + 1, p)
    ],
    # Text form: `build --json` crashes on non-prime q at this commit.
    "extension": [
        ["find-curve", "--q", "343", "--p", "19", "--json"],
        _code("build", 343, 19, 19),
    ],
}


def _is_q7(argv: list[str]) -> bool:
    return any(a in ("--q", "--rows") and b == "7" for a, b in zip(argv, argv[1:]))


# The q=7 requests of every workload; cheap enough for the quick tests.
WORKLOADS["smoke"] = [r for w in list(WORKLOADS) for r in WORKLOADS[w] if _is_q7(r)]


def requests(workload: str, seed: int) -> list[list[str]]:
    """The workload's requests, in an order drawn from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    reqs = [list(r) for r in WORKLOADS[workload]]
    random.Random(seed).shuffle(reqs)
    return reqs


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load_references() -> dict[str, dict]:
    """Map request key -> {"sha256": output digest, "exit": exit code}."""
    return json.loads(REFERENCES.read_text(encoding="utf-8"))
