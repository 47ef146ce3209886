"""Span recording at module boundaries, installed from outside the program.

``Tracer.install`` wraps every public module-level function of every
``controlpower`` module and rebinds each name that refers to it, in every
module of the package. Calls across modules (``pipeline`` calling
``spi_single``, ``dataset`` calling ``pdf_sample``) therefore pass
through a wrapper that records one span: name, start, end, parent span,
invocation. Functions are found by walking the modules, so a renamed or
replaced function is traced under its new name with no change here.
Spans stay in memory; ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from oracle import fourier_grid

PACKAGE = "controlpower"
LAYERS = ("cli", "dataset", "power_index", "fitting", "evolution", "pipeline")


def _fourier_grid_points(call: dict, result) -> dict:
    """Trial periods scanned by one Fourier fit, from its range and step."""
    lo, hi = call["period_range"] or (4.0, 2.0 * (call["series"].t[-1] - call["series"].t[0]))
    return {"fitting.grid_points": len(fourier_grid(float(lo), float(hi), call["grid_step"]))}


def _ingest_rows(call: dict, result) -> dict:
    with open(call["source"], encoding="utf-8") as handle:
        read = sum(1 for line in handle if line.strip()) - 1  # minus the header
    return {"dataset.rows_read": read, "dataset.rows_rejected": read - len(result)}


def _filtered_out(call: dict, result) -> dict:
    return {"dataset.rows_filtered_out": len(call["records"]) - len(result)}


def _draws(call: dict, result) -> dict:
    return {"evolution.draws": len(result)}


# Counters read from a call's arguments (by parameter name, defaults
# filled in) or its result, keyed by span name.
COUNTERS = {
    "fitting.fit_fourier1": _fourier_grid_points,
    "dataset.ingest_csv": _ingest_rows,
    "dataset.apply_sample_filter": _filtered_out,
    "evolution.pdf_sample": _draws,
}


class Tracer:
    """In-memory span log for one traced worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, invocation]
        self.counts: dict[str, float] = {}
        self.marks: list[float] = []  # stdout line ends, one per spi profile
        self.probes: list[list] = []  # [start, end, parent] of speed-probe samples
        self.invocation = -1
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.invocation]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                for key, value in counter(call.arguments, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap and rebind every public controlpower function; return their span names."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(layer, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(module, attr, wrapped[id(obj)])
        return sorted(f"{w.__module__.rpartition('.')[2]}.{w.__name__}" for w in wrapped.values())

    def add_probe_span(self, start: float, end: float) -> None:
        """Record a speed-probe sample as a child of the running span, so that
        it counts as nobody's self time. Kept apart from ``spans``: the probe
        runs from a signal handler, between any two bytecodes of a wrapper."""
        self.probes.append([start, end, self._stack[-1] if self._stack else -1])

    def reset(self) -> None:
        """Forget everything recorded so far (used after the warm-up run)."""
        self.spans.clear()
        self.counts.clear()
        self.marks.clear()
        self.probes.clear()

    def mark_line(self) -> None:
        self.marks.append(time.perf_counter())

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "probes": self.probes, "counts": self.counts, "marks": self.marks}, handle)


def probe_times(spans: list[list], probes: list[list]) -> list[float]:
    """Probe time taken inside each span, its descendants included."""
    within = [0.0] * len(spans)
    for start, end, parent in probes:
        if parent >= 0:
            within[parent] += end - start
    for i in range(len(spans) - 1, -1, -1):  # a child is appended after its parent
        if spans[i][4] >= 0:
            within[spans[i][4]] += within[i]
    return within


def self_times(spans: list[list], probes: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children and the probe
    samples taken inside it cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    for start, end, parent in probes:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Named-function metrics. Inclusive: span name -> (time metric, call-count metric).
INCLUSIVE = {
    "fitting.fit_fourier1": ("fitting.fourier_s", "fitting.fourier_calls"),
    "fitting.fit_normal": ("fitting.normal_s", "fitting.normal_calls"),
    "fitting.pearson": ("fitting.pearson_s", "fitting.pearson_calls"),
    "dataset.ingest_csv": ("dataset.ingest_s", None),
    "dataset.apply_sample_filter": ("dataset.filter_s", None),
    "dataset.group_records": ("dataset.group_s", None),
    "dataset.records_to_csv_bytes": ("dataset.digest_s", None),
    "dataset.synth_outcomes": ("dataset.synth_outcomes_s", None),
    "evolution.pdf_sample": ("evolution.pdf_sample_s", None),
    "pipeline.emit_report": ("pipeline.emit_s", None),
}
# Self time (span minus child spans): span name -> metric.
SELF = {
    "pipeline.year_stats": "pipeline.year_stats_self_s",
    "pipeline.year_stats_from_draws": "pipeline.draws_stats_self_s",
    "pipeline.build_report": "pipeline.build_report_self_s",
    "pipeline.build_group_report": "pipeline.build_report_self_s",
}
COUNTER_METRICS = (
    "fitting.grid_points", "dataset.rows_read", "dataset.rows_rejected",
    "dataset.rows_filtered_out", "evolution.draws",
)


def layer_metrics(spans: list[list], probes: list[list], counts: dict, factors: list[float]) -> dict[str, float]:
    """Per-invocation layer self times, layer entry calls and named-function metrics.

    Times are scaled by each invocation's speed factor (see speed.py).
    """
    own = self_times(spans, probes)
    probed = probe_times(spans, probes)
    out = dict.fromkeys(
        [f"{layer}.self_s" for layer in LAYERS]
        + ["power_index.calls"]
        + [m for pair in INCLUSIVE.values() for m in pair if m]
        + list(SELF.values())
        + list(COUNTER_METRICS),
        0.0,
    )
    for i, (name, layer, start, end, parent, inv) in enumerate(spans):
        scale = factors[inv]
        out[f"{layer}.self_s"] += own[i] * scale
        if layer == "power_index" and (parent < 0 or spans[parent][1] != "power_index"):
            out["power_index.calls"] += 1
        if name in INCLUSIVE:
            time_key, calls_key = INCLUSIVE[name]
            out[time_key] += (end - start - probed[i]) * scale
            if calls_key:
                out[calls_key] += 1
        if name in SELF:
            out[SELF[name]] += own[i] * scale
    for key, value in counts.items():
        out[key] += value
    return {k: v / len(factors) for k, v in out.items()}


def profile_times_ms(spans: list[list], probes: list[list], marks: list[float], factors: list[float]) -> list[float]:
    """power_index time spent on each printed profile, in (speed-scaled) ms.

    A profile's window ends at the stdout line that prints it and starts
    where the previous profile's line (or the invocation) ended.
    """
    probed = probe_times(spans, probes)
    entries = [i for i, s in enumerate(spans)
               if s[1] == "power_index" and (s[4] < 0 or spans[s[4]][1] != "power_index")]
    windows = []
    k = 0
    for end in marks:
        total = 0.0
        while k < len(entries) and spans[entries[k]][3] <= end:
            s = spans[entries[k]]
            total += (s[3] - s[2] - probed[entries[k]]) * factors[s[5]]
            k += 1
        windows.append(total * 1e3)
    return windows
