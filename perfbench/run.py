"""nmdscodes benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Every pass runs in a fresh single-threaded child process (child.py) that
issues the workload's CLI requests in-process and checks each output
against the reference recorded in references.json.  Passes run one at a
time, closed loop, until the next one would overrun ``--seconds`` (at
least one).  Before them, SETUP_PROBES children stop after set-up, so
that ``setup_s`` is a median even for workloads with a single pass.

``--trace 0`` reports the end-to-end metrics: median pass wall time,
median set-up time and median peak RSS.  On a shared host the speed of
a core can swing by up to a factor of two, in phases from seconds to
minutes, so the two times are rescaled to a reference speed: each child samples the speed of the host while it works
(child.SpeedProbe), and a time t measured while the probe ran at r
samples per second is reported as t * r / REFERENCE_RATE.  The probe
times a loop that runs no nmdscodes code, so a change to the program
moves the reported times as it moves the measured ones.  The measured
times and the host speed go to standard error.

``--trace 1`` runs one untraced and one traced pass, both without the
probe, and reports the per-layer metrics of the traced one; both passes
are checked against the references.

The last line of standard output is the result object.  Each failed
request and the span-coverage line go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 12
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# A typical child.SpeedProbe rate (samples per second) on the 2-vCPU host
# where the references were recorded; the times reported are at this speed.
REFERENCE_RATE = 1250.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = tracer.metric_units()
    units.update({"process.cpu_s": "s", "trace.overhead_ratio": "ratio", "error_rate": "ratio"})
    return units


class CheckoutError(Exception):
    """The directory holds no nmdscodes source tree to benchmark."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy must start no threads beyond the serial baseline.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _reader(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def at_reference_speed(seconds: float, rate: float) -> float:
    """`seconds` measured while the speed probe ran at `rate`, rescaled to
    REFERENCE_RATE."""
    return seconds * rate / REFERENCE_RATE


def run_child(workload: str, seed: int, mode: str, deadline: float,
              speed: bool = False) -> dict:
    """Run child.py to completion or until `deadline` (perf_counter time).

    Returns {"setup_s", "requests", "done", "timed_out", "exit"}; with
    `speed` the child samples the host's speed and "setup_s" excludes the
    time it spent on that.  On expiry the child is killed; requests it did
    not report are absent.
    """
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if speed:
        cmd.append("--speed")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=str(ROOT))
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_reader, args=(proc.stdout, lines), daemon=True)
    reader.start()
    out = {"setup_s": None, "requests": [], "done": None, "timed_out": False}
    finished = False
    try:
        while True:
            remaining = deadline - time.perf_counter()
            try:
                line = lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                out["timed_out"] = True
                break
            if line is None:
                break
            record = json.loads(line)
            event = record.pop("event")
            if event == "ready":
                out["setup_s"] = time.perf_counter() - start - record["probe_s"]
            elif event == "request":
                out["requests"].append(record)
            else:
                out["done"] = record
        finished = not out["timed_out"]
    finally:
        if not finished:
            proc.kill()
        out["exit"] = proc.wait()
        reader.join()
        proc.stdout.close()
    if out["setup_s"] is None and not out["timed_out"]:
        raise RuntimeError(f"child exited with {out['exit']} before set-up finished")
    return out


def _failures(passes: list[dict], reqs: list[list[str]]) -> list[str]:
    """One message per failed request across `passes`; a request missing
    from a pass (deadline or crash) counts as failed."""
    msgs = []
    for n, p in enumerate(passes):
        seen = {workloads.key(r["argv"]): r for r in p["requests"]}
        for argv in reqs:
            r = seen.get(workloads.key(argv))
            if r is None:
                why = "deadline expired" if p["timed_out"] else f"child exited {p['exit']}"
                msgs.append(f"pass {n}: {workloads.key(argv)!r}: unfinished ({why})")
            elif r["failure"] is not None:
                msgs.append(f"pass {n}: {workloads.key(argv)!r}: {r['failure']}")
    return msgs


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload.  Returns (result object, diagnostics)."""
    if not (ROOT / "src" / "nmdscodes" / "__init__.py").is_file():
        raise CheckoutError(f"no nmdscodes source under {ROOT / 'src'}")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    reqs = workloads.requests(workload, seed)
    notes: dict = {}
    if trace:
        passes = [run_child(workload, seed, mode, deadline) for mode in ("run", "trace")]
    else:
        probes = [run_child(workload, seed, "setup", deadline, speed=True)
                  for _ in range(SETUP_PROBES)]
        passes = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(run_child(workload, seed, "run", deadline, speed=True))
            if passes[-1]["timed_out"]:
                break
            lap = time.perf_counter() - t
            if time.perf_counter() - start + lap > seconds:
                break
    # Both passes of a traced run are checked against the same references,
    # so their outputs are identical whenever no request failed.
    messages = _failures(passes, reqs)
    attempted = len(reqs) * len(passes)
    failed = len(messages)
    complete = [p["done"] for p in passes if p["done"] is not None]
    if trace:
        if len(complete) == 2:
            untraced, traced = complete
            metrics = dict(traced["layers"])
            metrics["process.cpu_s"] = untraced["cpu_s"]
            metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
            notes["coverage"] = (traced["span_self_s"], traced["request_wall_s"])
            notes["spans"] = traced["spans"]
        else:
            metrics = {}
        metrics["error_rate"] = failed / attempted
        units = per_layer_units()
    else:
        # A set-up is too short for a steady speed reading of its own, so
        # the median set-up is rescaled by the median speed of the run.
        children = [c["done"] for c in probes + passes if c["done"] is not None]
        setups = [c["setup_s"] for c in probes + passes if c["done"] is not None]
        rates = [c["setup_rate"] for c in children] + [d["rate"] for d in complete]
        walls = [(d["wall_s"] - d["probe_s"], d["rate"]) for d in complete]
        metrics = {
            "wall_s": statistics.median(at_reference_speed(*w) for w in walls)
            if walls else None,
            "setup_s": at_reference_speed(statistics.median(setups), statistics.median(rates))
            if setups else None,
            "peak_rss_mib": statistics.median(d["peak_rss_mib"] for d in complete)
            if complete else None,
        }
        units = END_TO_END_UNITS
        if walls and setups:
            notes["measured"] = (
                f"measured: wall_s {statistics.median(w for w, _ in walls):.4f} s,"
                f" setup_s {statistics.median(setups):.4f} s;"
                f" host speed {statistics.median(r for _, r in walls) / REFERENCE_RATE:.4f}"
                f" (passes), {statistics.median(rates) / REFERENCE_RATE:.4f}"
                f" (run) of the reference")
    notes["failures"] = messages
    notes["passes"] = len(passes)
    result = {
        "correct": not failed and len(complete) == len(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, notes


def coverage_line(workload: str, notes: dict) -> str:
    """How much of the traced requests' wall time the spans account for."""
    spans, wall = notes["coverage"]
    return (f"coverage {workload}: span self times {spans:.4f} s of request wall"
            f" {wall:.4f} s ({100 * spans / wall:.2f}%), {notes['spans']} spans")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (CheckoutError, RuntimeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for msg in notes["failures"]:
        print(f"FAIL {msg}", file=sys.stderr)
    if "coverage" in notes:
        print(coverage_line(args.workload, notes), file=sys.stderr)
    if "measured" in notes:
        print(notes["measured"], file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
