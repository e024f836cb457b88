"""In-process tracing for the benchmark's per-layer metrics.

Spans are recorded from the benchmark's side only: each public layer function
is replaced, in the namespace that calls it, by a wrapper that times the call
and counts its work. Spans stay in memory (name, start, end, parent span, run
id and counts) and are written out when the run ends.

Work done by the wrapper itself around the call (counting, memory probes) is
recorded as a ``trace.bookkeeping`` child span, so it is subtracted from the
caller's self time instead of being charged to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

#: (module whose binding is replaced, attribute, span name). Every namespace
#: that calls a layer function gets its own entry, so calls from ``cli`` and
#: from ``selfcheck`` or ``comparison`` land in the same span name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("rfpcompare.cli", "generate_sites", "gridsim.generate_sites"),
    ("rfpcompare.cli", "compute_field", "gridsim.compute_field"),
    ("rfpcompare.cli", "verify_upper_bound", "gridsim.verify_upper_bound"),
    ("rfpcompare.cli", "export_field_csv", "gridsim.export_field_csv"),
    ("rfpcompare.cli", "evaluate_pair", "comparison.evaluate_pair"),
    ("rfpcompare.cli", "closed_form_delta", "comparison.closed_form_delta"),
    ("rfpcompare.cli", "parse_scenario_file", "scenarios.parse_scenario_file"),
    ("rfpcompare.cli", "validate_scenario", "scenarios.validate_scenario"),
    ("rfpcompare.cli", "sweep_beta", "scenarios.sweep_beta"),
    ("rfpcompare.cli", "run_validation", "selfcheck.run_validation"),
    ("rfpcompare.selfcheck", "verify_closed_forms", "comparison.verify_closed_forms"),
    ("rfpcompare.selfcheck", "estimate_alpha_monte_carlo",
     "geometry.estimate_alpha_monte_carlo"),
    ("rfpcompare.selfcheck", "generate_sites", "gridsim.generate_sites"),
    ("rfpcompare.selfcheck", "compute_field", "gridsim.compute_field"),
    ("rfpcompare.selfcheck", "verify_upper_bound", "gridsim.verify_upper_bound"),
    ("rfpcompare.selfcheck", "empirical_alpha", "gridsim.empirical_alpha"),
    ("rfpcompare.comparison", "evaluate_pair", "comparison.evaluate_pair"),
    ("rfpcompare.comparison", "closed_form_delta", "comparison.closed_form_delta"),
)

COMMAND_SPAN = "cli.command"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class MissingLayerFunction(LookupError):
    """A traced function no longer exists where the benchmark wraps it."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, float] = field(default_factory=dict)


# -- Counters: the work each call did, taken from its arguments and result ----

def _pixel_count(region, resolution: float) -> int:
    # Same pixel-center rule as the simulator: floor(extent / resolution).
    nx = math.floor((region.x_max - region.x_min) / resolution + 1e-9)
    if region.y_min == region.y_max:
        return nx
    return nx * math.floor((region.y_max - region.y_min) / resolution + 1e-9)


def _count_generate_sites(a: dict, result) -> dict:
    return {"sites": len(result.sites)}


def _count_compute_field(a: dict, fld) -> dict:
    arrays = (fld.xs, fld.ys, fld.serving_site, fld.serving_distance,
              fld.rfp_serving, fld.rfp_total, fld.excluded)
    return {
        "pixel_sites": fld.n_pixels * len(a["lattice"].sites),
        "computed_bytes": sum(arr.nbytes for arr in arrays),
    }


def _count_verify_upper_bound(a: dict, result) -> dict:
    fld, limit = a["field"], a["layout"].zeta * a["dep"].d_max
    checked = fld.central_cell & (fld.serving_distance <= limit)
    return {"pixels": fld.n_pixels, "pixels_checked": int(checked.sum())}


def _count_export_field_csv(a: dict, text: str) -> dict:
    return {"rows": a["field"].n_pixels, "bytes": len(text.encode("utf-8"))}


def _count_empirical_alpha(a: dict, result) -> dict:
    from rfpcompare.gridsim import default_region

    lattice = a["lattice"]
    pixels = _pixel_count(default_region(lattice), a["resolution"])
    return {"pixel_sites": pixels * len(lattice.sites)}


def _count_monte_carlo(a: dict, result) -> dict:
    return {"samples": a["n_samples"]}


def _count_verify_closed_forms(a: dict, result) -> dict:
    return {"checks": len(result)}


def _count_sweep_beta(a: dict, result) -> dict:
    return {"points": len(result)}


COUNTERS: dict[str, Callable[[dict, Any], dict]] = {
    "gridsim.generate_sites": _count_generate_sites,
    "gridsim.compute_field": _count_compute_field,
    "gridsim.verify_upper_bound": _count_verify_upper_bound,
    "gridsim.export_field_csv": _count_export_field_csv,
    "gridsim.empirical_alpha": _count_empirical_alpha,
    "geometry.estimate_alpha_monte_carlo": _count_monte_carlo,
    "comparison.verify_closed_forms": _count_verify_closed_forms,
    "scenarios.sweep_beta": _count_sweep_beta,
}


# -- Memory probes -------------------------------------------------------------

class _TracemallocPeak:
    """Peak of traced allocations during the call, in MB.

    Only for calls that allocate few Python objects: on the CSV export,
    tracemalloc slows the call about fifteenfold.
    """

    key = "peak_alloc_mb"

    def start(self) -> None:
        tracemalloc.start()

    def stop(self) -> float:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak / 2**20


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class _RssRise:
    """Rise of this process's resident set during the call, sampled every 2 ms, in MB."""

    key = "peak_rss_rise_mb"

    def start(self) -> None:
        self._base = self._peak = _rss_bytes()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._done.wait(0.002):
            self._peak = max(self._peak, _rss_bytes())

    def stop(self) -> float:
        self._done.set()
        self._thread.join()
        self._peak = max(self._peak, _rss_bytes())
        return (self._peak - self._base) / 2**20


PROBES: dict[str, Callable[[], Any]] = {
    "gridsim.compute_field": _TracemallocPeak,
    "gridsim.export_field_csv": _RssRise,
}


# -- Tracer ----------------------------------------------------------------------

class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _record(self, span_id, name, start, end, parent, counts=None) -> None:
        self.spans.append(Span(span_id, name, start, end, parent, self.run, counts or {}))

    def _bookkeeping(self, start: float, end: float, parent: int | None) -> None:
        self._next_id += 1
        self._record(self._next_id, BOOKKEEPING_SPAN, start, end, parent)

    @contextmanager
    def span(self, name: str):
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(span_id, name, start, end, parent)

    def wrap(self, name: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        probe_type = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            before = time.perf_counter()
            probe = probe_type() if probe_type else None
            if probe:
                probe.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = {probe.key: probe.stop()} if probe else {}
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            self._record(span_id, name, start, end, parent, counts)
            if probe:
                self._bookkeeping(before, start, parent)
            self._bookkeeping(end, time.perf_counter(), parent)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def resolve_targets() -> list[tuple[Any, str, Callable, str]]:
    """Look up every target; a missing one fails the run and is named."""
    resolved = []
    for module_name, attr, span_name in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise MissingLayerFunction(
                f"traced function {module_name}.{attr} ({span_name}) does not exist; "
                "update benchmarks/tracing.py TARGETS to the new name"
            )
        resolved.append((module, attr, fn, span_name))
    return resolved


@contextmanager
def installed(tracer: Tracer, resolved):
    """Replace the targets by traced wrappers for the duration of the block."""
    try:
        for module, attr, fn, span_name in resolved:
            setattr(module, attr, tracer.wrap(span_name, fn))
        yield
    finally:
        for module, attr, fn, _ in resolved:
            setattr(module, attr, fn)


# -- From spans to per-layer metrics ---------------------------------------------

def _self_time(span: Span, children: list[Span]) -> float:
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


#: Probe readings that combine by maximum, not by sum, within a pass.
PEAK_KEYS = {"peak_alloc_mb", "peak_rss_rise_mb"}


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, calls, summed counts and summed self time."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    agg: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = agg.setdefault(s.name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["s"] += s.end - s.start
        entry["calls"] += 1
        entry["self_s"] += _self_time(s, children.get(s.id, []))
        for key, value in s.counts.items():
            if key in PEAK_KEYS:
                entry[key] = max(entry.get(key, 0.0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Layers the pass never called read 0."""

    def g(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    cf, csv, ub = "gridsim.compute_field", "gridsim.export_field_csv", "gridsim.verify_upper_bound"
    gs, ea = "gridsim.generate_sites", "gridsim.empirical_alpha"
    mc, vcf = "geometry.estimate_alpha_monte_carlo", "comparison.verify_closed_forms"
    ep, cfd = "comparison.evaluate_pair", "comparison.closed_form_delta"
    psf, vs, sb = ("scenarios.parse_scenario_file", "scenarios.validate_scenario",
                   "scenarios.sweep_beta")
    return {
        "cli.self_s": g(COMMAND_SPAN, "self_s"),
        f"{gs}.s": g(gs, "s"),
        f"{gs}.sites": g(gs, "sites"),
        f"{cf}.s": g(cf, "s"),
        f"{cf}.ns_per_pixel_site": _ratio(1e9 * g(cf, "s"), g(cf, "pixel_sites")),
        f"{cf}.pixel_sites": g(cf, "pixel_sites"),
        f"{cf}.computed_bytes": g(cf, "computed_bytes"),
        f"{cf}.peak_alloc_mb": g(cf, "peak_alloc_mb"),
        f"{ub}.s": g(ub, "s"),
        f"{ub}.ns_per_pixel": _ratio(1e9 * g(ub, "s"), g(ub, "pixels")),
        f"{ub}.pixels_checked": g(ub, "pixels_checked"),
        f"{csv}.s": g(csv, "s"),
        f"{csv}.ns_per_row": _ratio(1e9 * g(csv, "s"), g(csv, "rows")),
        f"{csv}.rows": g(csv, "rows"),
        f"{csv}.bytes": g(csv, "bytes"),
        f"{csv}.peak_rss_rise_mb": g(csv, "peak_rss_rise_mb"),
        f"{ea}.s": g(ea, "s"),
        f"{ea}.ns_per_pixel_site": _ratio(1e9 * g(ea, "s"), g(ea, "pixel_sites")),
        f"{ea}.pixel_sites": g(ea, "pixel_sites"),
        f"{mc}.s": g(mc, "s"),
        f"{mc}.ns_per_sample": _ratio(1e9 * g(mc, "s"), g(mc, "samples")),
        f"{mc}.samples": g(mc, "samples"),
        f"{vcf}.s": g(vcf, "s"),
        f"{vcf}.checks": g(vcf, "checks"),
        f"{ep}.us_per_call": _ratio(1e6 * g(ep, "s"), g(ep, "calls")),
        f"{ep}.calls": g(ep, "calls"),
        f"{cfd}.us_per_call": _ratio(1e6 * g(cfd, "s"), g(cfd, "calls")),
        f"{cfd}.calls": g(cfd, "calls"),
        f"{psf}.us_per_call": _ratio(1e6 * g(psf, "s"), g(psf, "calls")),
        f"{psf}.calls": g(psf, "calls"),
        f"{vs}.us_per_call": _ratio(1e6 * g(vs, "s"), g(vs, "calls")),
        f"{vs}.calls": g(vs, "calls"),
        f"{sb}.us_per_call": _ratio(1e6 * g(sb, "s"), g(sb, "calls")),
        f"{sb}.points": g(sb, "points"),
        "selfcheck.run_validation.self_s": g("selfcheck.run_validation", "self_s"),
    }


#: Metrics that count work; they must repeat exactly from pass to pass.
EXACT_COUNTS = (
    "gridsim.generate_sites.sites",
    "gridsim.compute_field.pixel_sites",
    "gridsim.compute_field.computed_bytes",
    "gridsim.verify_upper_bound.pixels_checked",
    "gridsim.export_field_csv.rows",
    "gridsim.export_field_csv.bytes",
    "gridsim.empirical_alpha.pixel_sites",
    "geometry.estimate_alpha_monte_carlo.samples",
    "comparison.verify_closed_forms.checks",
    "comparison.evaluate_pair.calls",
    "comparison.closed_form_delta.calls",
    "scenarios.parse_scenario_file.calls",
    "scenarios.validate_scenario.calls",
    "scenarios.sweep_beta.points",
)


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each measured metric; counts must agree exactly across passes.

    Returns the combined metrics and the names of counts that differed.
    """
    combined, unstable = {}, []
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in EXACT_COUNTS:
            if len(set(values)) != 1:
                unstable.append(name)
            combined[name] = values[0]
        else:
            combined[name] = statistics.median(values)
    return combined, unstable
