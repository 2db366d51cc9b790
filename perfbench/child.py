"""One benchmark pass, run in its own process by run.py.

Set-up (imports, request list, references) happens first and ends with
a ``ready`` line; in ``setup`` mode the process then only reports its
host-speed samples.  Otherwise it issues every request in-process through
``nmdscodes.cli.main`` and reports one JSON line per request, then a
``done`` line with the pass wall time, CPU time, peak RSS and (in
``trace`` mode) the layer metrics.

With ``--speed`` a `SpeedProbe` samples the host's speed from the first
line of set-up to the end of the pass; run.py uses the samples to rescale
the measured times to a reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Samples taken right after set-up, so that even a short set-up or pass
# has enough of them for a steady rate.
BURST_SAMPLES = 100


class SpeedProbe:
    """Samples of how fast this host runs the Python interpreter.

    Every `INTERVAL_S` of wall time a SIGALRM handler times `LOOPS`
    iterations of a fixed pure-Python loop that touches no nmdscodes code.
    On a shared host the speed of a core swings from second to second and
    minute to minute; `rate` (samples per second, averaged over the samples
    of an interval) says how fast the host ran during it.  The time spent
    in the handler is kept in `spent` so that it can be taken out of the
    measured interval.
    """

    INTERVAL_S = 0.025
    LOOPS = 10_000

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        s = 0
        for i in range(self.LOOPS):
            s += i * i % 7
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    @staticmethod
    def rate(samples: list[float]) -> float:
        """Mean speed over `samples`: the samples are evenly spaced in
        time, so the work done between them is proportional to 1/sample."""
        return statistics.fmean(1 / s for s in samples)

    def take(self) -> tuple[list[float], float]:
        """The samples and handler time since the last call, then reset."""
        out = (self.samples, self.spent)
        self.samples, self.spent = [], 0.0
        return out


def run_request(main, argv: list[str], span=contextlib.nullcontext()) -> dict:
    """Run one CLI request inside `span`; return its exit code, output
    digest and wall time."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed request, not a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {
        "exit": code,
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "seconds": seconds,
        "error": error or err.getvalue().strip()[-500:] or None,
    }


def check(result: dict, reference: dict | None) -> str | None:
    """Why `result` differs from its reference, or None when it matches."""
    if reference is None:
        return "no recorded reference"
    if result["exit"] != reference["exit"]:
        return f"exit {result['exit']} != {reference['exit']} ({result['error']})"
    if result["sha256"] != reference["sha256"]:
        return f"output sha256 {result['sha256'][:12]} != {reference['sha256'][:12]}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--speed", action="store_true", help="sample the host's speed")
    args = ap.parse_args()
    report = sys.stdout
    probe = SpeedProbe() if args.speed else None
    if probe is not None:
        probe.start()

    def emit(record: dict) -> None:
        report.write(json.dumps(record) + "\n")
        report.flush()

    import numpy  # noqa: F401  (part of the set-up a CLI user pays)
    import nmdscodes
    from nmdscodes import cli

    src = (ROOT / "src").resolve()
    if src not in Path(nmdscodes.__file__).resolve().parents:
        print(f"nmdscodes imported from {nmdscodes.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    reqs = workloads.requests(args.workload, args.seed)
    refs = workloads.load_references()
    tracer = None
    if args.mode == "trace":
        from tracer import REQUEST_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    setup_samples, setup_probe_s = probe.take() if probe is not None else ([], 0.0)
    emit({"event": "ready", "probe_s": setup_probe_s})
    speed = {}
    if probe is not None:
        for _ in range(BURST_SAMPLES):
            probe.sample()
        burst, _ = probe.take()
        speed["setup_rate"] = probe.rate(setup_samples + burst)
    if args.mode == "setup":
        if probe is not None:
            probe.stop()
        emit({"event": "done", **speed})
        return 0

    request_wall = 0.0
    start = time.perf_counter()
    for argv in reqs:
        span = contextlib.nullcontext() if tracer is None else tracer.span(REQUEST_SPAN)
        result = run_request(cli.main, argv, span)
        request_wall += result["seconds"]
        result["failure"] = check(result, refs.get(workloads.key(argv)))
        emit({"event": "request", "argv": argv, **result})
    wall = time.perf_counter() - start
    if probe is not None:
        probe.stop()
        samples, spent = probe.take()
        speed["probe_s"] = spent
        speed["rate"] = probe.rate(samples or burst)
    if tracer is not None:
        tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    done = {
        "event": "done",
        "wall_s": wall,
        **speed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        done["layers"] = tracer.metrics()
        done["span_self_s"] = sum(s for s, _ in tracer.self_times().values())
        done["request_wall_s"] = request_wall
        done["spans"] = len(tracer.spans)
    emit(done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
