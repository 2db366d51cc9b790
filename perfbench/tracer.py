"""Span tracer that wraps nmdscodes functions from outside the package.

`Tracer.install` replaces each target function with a timing wrapper
under every name that refers to it in the loaded ``nmdscodes`` modules
and their classes (re-exports and aliases such as ``count_subsets``
included), and `Tracer.uninstall` puts the originals back.  Spans are
kept in memory with a link to the span that was open when they started;
a layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

PACKAGE = "nmdscodes"

# Module -> traced functions ("Class.method" for methods).
TARGETS: dict[str, tuple[str, ...]] = {
    "param_search": ("find_curve", "verify_curve"),
    "elliptic_curve": (
        "Curve.points",
        "Curve.group_structure",
        "point_group_isomorphism",
        "find_trace_zero_point",
    ),
    "finite_field": ("quadratic_extension",),
    "code_builder": (
        "make_divisor",
        "build_code",
        "classify_mds_nmds",
        "codeword_vanishing_on",
        "nmds_structural_check",
    ),
    "linalg": ("rank", "kernel_basis"),
    "code_analysis": (
        "zero_sum_witness_positions",
        "pin_min_distance",
        "certify_two_design",
        "min_weight_supports",
        "min_weight_count_formula",
        "nmds_weight_distribution",
        "weight_distribution_bruteforce",
        "macwilliams_transform",
    ),
    "subset_designs": (
        "count_subsets_full",
        "count_subsets_nonzero",
        "subset_sum_masks",
        "brute_force_counts",
        "verify_design",
    ),
}

# Name of the span that wraps one whole CLI request.
REQUEST_SPAN = "cli.main"


def _first_arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


# Work counts recorded at the same boundaries: metric -> (span, count).
WORK_COUNTS = {
    "elliptic_curve.points.out": (
        "elliptic_curve.points", lambda args, kwargs, out: len(out)),
    "subset_designs.subset_sum_masks.out": (
        "subset_designs.subset_sum_masks", lambda args, kwargs, out: len(out)),
    "subset_designs.verify_design.blocks": (
        "subset_designs.verify_design",
        lambda args, kwargs, out: len(_first_arg(args, kwargs, "design").blocks)),
    "code_analysis.weight_distribution_bruteforce.messages": (
        "code_analysis.weight_distribution_bruteforce",
        lambda args, kwargs, out: (
            _first_arg(args, kwargs, "code").field.order
            ** _first_arg(args, kwargs, "code").k_dim)),
    "code_builder.build_code.entries": (
        "code_builder.build_code", lambda args, kwargs, out: out.k_dim * out.n),
}


def span_names() -> list[str]:
    """`<module>.<function>` for every traced function, in TARGETS order."""
    return [f"{mod}.{target.rsplit('.', 1)[-1]}"
            for mod, targets in TARGETS.items() for target in targets]


def metric_units() -> dict[str, str]:
    """Every metric `Tracer.metrics` reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for mod in ("cli", *TARGETS):
        units[f"{mod}.self_s"] = "s"
    units.update((name, "count") for name in WORK_COUNTS)
    return units


class Tracer:
    def __init__(self) -> None:
        # One entry per span: [name, parent index or None, start, end].
        self.spans: list[list] = []
        self.counts = {name: 0 for name in WORK_COUNTS}
        self._open: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._counters = {span: (metric, fn) for metric, (span, fn) in WORK_COUNTS.items()}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every name in the loaded nmdscodes modules that refers to
        a traced function, so that all call paths go through a wrapper."""
        wrappers: dict[int, tuple[object, object]] = {}
        for mod, targets in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for target in targets:
                owner = module
                *path, attr = target.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = vars(owner)[attr]
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            owners = [module] + [
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == modname
            ]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(owner, attr, hit[1])
                        self._rebound.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._rebound):
            setattr(owner, attr, value)
        self._rebound.clear()

    def self_times(self) -> dict[str, list]:
        """span name -> [self seconds, calls]."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += end - start - child[i]
            entry[1] += 1
        return totals

    def metrics(self) -> dict[str, float]:
        """Self time and calls per traced function, self time per module
        (``cli`` holds request time outside every traced function), and
        the work counts."""
        totals = self.self_times()
        out: dict[str, float] = {}
        modules = {mod: 0.0 for mod in ("cli", *TARGETS)}
        for name in span_names():
            self_s, calls = totals.get(name, (0.0, 0))
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
            modules[name.split(".", 1)[0]] += self_s
        modules["cli"] = totals.get(REQUEST_SPAN, (0.0, 0))[0]
        out.update((f"{mod}.self_s", s) for mod, s in modules.items())
        out.update(self.counts)
        return out
