"""Outside-in instrumentation of dafrelay: the benchmark swaps public functions,
in the module namespaces they are looked up from, for wrappers that record
spans or results.  Nothing in the package changes, and every swap is undone
when its `patched` block ends.

A span's label is the defining module and the function name, so a call to
`gen_fading` made from `montecarlo` is charged to `channel.gen_fading`.  The
layer is the label's module.  A span's self time is its duration minus the
durations of the traced calls made inside it.
"""

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from dafrelay import analysis, channel, cli, link, montecarlo, receiver, specials

MODULES = (specials, channel, link, receiver, analysis, montecarlo, cli)
LAYERS = tuple(m.__name__.split(".")[1] for m in MODULES)

# functions whose results carry BerEstimates; only the outermost call is kept
SIM_ENTRY_POINTS = ("run_sweep", "run_point", "run_point_schemes")

# name -> work counted from the call's arguments or result (computed, not timed)
COUNTERS = {
    "gen_fading": lambda a, k, r: {"samples": np.size(r)},
    "gen_cascaded": lambda a, k, r: {"samples": np.size(r[0])},
    "validate_stats": lambda a, k, r: {"samples": np.size(a[0])},
    "diff_encode": lambda a, k, r: {"symbols": np.size(a[0])},
    "transmit": lambda a, k, r: {"symbols": np.size(a[0])},
    "combine": lambda a, k, r: {"symbols": np.size(r)},
    "detect": lambda a, k, r: {"symbols": np.size(r)},
    # symbols generated: one shared draw serves every scheme of the call
    "run_point_schemes": lambda a, k, r: {
        "symbols": max(e.bits for e in r.values()) / math.log2((a[0] if a else k["config"]).M)
    },
    # specials.exp_e1_scaled evaluates x > 50 by its continued fraction
    "exp_e1_scaled": lambda a, k, r: {
        "elements": np.size(a[0]),
        "cf": int(np.count_nonzero(np.asarray(a[0]) > 50.0)),
    },
    "pep_point": lambda a, k, r: {"args": (a, tuple(sorted(k.items())))},
}
TRACED = (
    "gen_fading", "gen_cascaded", "validate_stats", "envelope_chi_square", "bessel_k0",
    "diff_encode", "transmit", "run_sweep", "run_point_schemes",
    "combine", "detect", "weights_cdd", "weights_tvd", "weights_opt_genie",
    "pep_point", "pep", "i1_closed_form", "error_floor", "exp_e1_scaled",
)


@contextmanager
def patched(names, make_wrapper):
    """Swap every dafrelay function called one of `names`, wherever a module holds it."""
    wrappers, saved = {}, []
    for module in MODULES:
        for name in names:
            fn = module.__dict__.get(name)
            if not callable(fn) or not getattr(fn, "__module__", "").startswith("dafrelay."):
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = make_wrapper(name, fn)
            saved.append((module, name, fn))
            setattr(module, name, wrappers[id(fn)])
    try:
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


class EstimateCapture:
    """Collects the BerEstimates the outermost simulation call returns."""

    def __init__(self):
        self.estimates = []
        self._depth = 0

    def wrapper(self, name, fn):
        @functools.wraps(fn)
        def capture(*args, **kwargs):
            self._depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                if isinstance(result, dict):
                    self.estimates += result.values()
                elif isinstance(result, list):
                    self.estimates += result
                else:
                    self.estimates.append(result)
            return result

        return capture


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))
    distinct: set = field(default_factory=set)


class Tracer:
    """Per-label span totals for one rep, kept in memory."""

    def __init__(self):
        self.spans = defaultdict(Span)
        self._child_time = []  # one accumulator per open span

    def call(self, label, fn, args, kwargs, counter=None):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            span = self.spans[label]
            span.calls += 1
            span.total += elapsed
            span.self_time += elapsed - children
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                if key == "args":
                    span.distinct.add(repr(value))
                else:
                    span.counts[key] += value
        return result

    def wrapper(self, name, fn):
        label = f"{fn.__module__.split('.')[1]}.{name}"
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(label, fn, args, kwargs, counter)

        return traced


def merge(tracers) -> dict:
    """Sum the spans of several reps; distinct arguments are counted per rep."""
    out = defaultdict(Span)
    for tracer in tracers:
        for label, span in tracer.spans.items():
            acc = out[label]
            acc.calls += span.calls
            acc.total += span.total
            acc.self_time += span.self_time
            for key, value in span.counts.items():
                acc.counts[key] += value
            if span.distinct:
                acc.counts["distinct"] += len(span.distinct)
    return out


def layer_metrics(spans: dict, reps: int, traced_wall: float, overhead: float) -> dict:
    """The per-layer metrics, every one on every workload.

    Counts are per rep.  `*_per_*` times use the span's whole duration; names
    with `self` use self time; shares divide by the traced wall.  A metric
    whose span never ran, or whose divisor is 0, reads 0.
    """
    out = {}
    empty = Span()

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0

    def span(label):
        return spans.get(label, empty)

    def per(label, key, scale, name, unit):
        put(name, ratio(span(label).total, span(label).counts.get(key, 0)) * scale, unit)

    def per_call(label, scale, name, unit, time_attr="total"):
        put(name, ratio(getattr(span(label), time_attr), span(label).calls) * scale, unit)

    def layer_self(layer):
        return sum(s.self_time for label, s in spans.items() if label.split(".")[0] == layer)

    fading = span("channel.gen_fading")
    per("channel.gen_fading", "samples", 1e9, "channel.gen_fading.ns_per_sample", "ns")
    put("channel.gen_fading.samples", fading.counts.get("samples", 0) / reps, "count")
    put("channel.gen_fading.share", fading.self_time / traced_wall, "ratio")
    per("channel.gen_cascaded", "samples", 1e9, "channel.gen_cascaded.ns_per_sample", "ns")
    per("channel.validate_stats", "samples", 1e9, "channel.validate_stats.ns_per_sample", "ns")
    per_call("channel.envelope_chi_square", 1e3, "channel.envelope_chi_square.ms_per_call", "ms")
    put("specials.bessel_k0.calls", span("specials.bessel_k0").calls / reps, "count")

    per("link.diff_encode", "symbols", 1e9, "link.diff_encode.ns_per_sym", "ns")
    per("link.transmit", "symbols", 1e9, "link.transmit.ns_per_sym", "ns")
    put("link.transmit.share", span("link.transmit").self_time / traced_wall, "ratio")

    per("receiver.combine", "symbols", 1e9, "receiver.combine.ns_per_sym", "ns")
    per("receiver.detect", "symbols", 1e9, "receiver.detect.ns_per_sym", "ns")
    weights = [s for label, s in spans.items() if label.startswith("receiver.weights_")]
    put("receiver.weights.us_per_call",
        ratio(sum(s.total for s in weights), sum(s.calls for s in weights)) * 1e6, "us")

    symbols = span("montecarlo.run_point_schemes").counts.get("symbols", 0)
    put("montecarlo.self.ns_per_sym", ratio(layer_self("montecarlo"), symbols) * 1e9, "ns")
    put("montecarlo.self.share", layer_self("montecarlo") / traced_wall, "ratio")
    chunks = span("link.diff_encode").calls
    put("montecarlo.chunks", chunks / reps, "count")
    put("montecarlo.decodes_per_chunk", ratio(span("receiver.combine").calls, chunks), "ratio")

    per_call("analysis.pep_point", 1e6, "analysis.pep_point.us_per_call", "us")
    per_call("analysis.pep", 1e6, "analysis.pep.self_us_per_call", "us", "self_time")
    per_call("analysis.i1_closed_form", 1e6, "analysis.i1_closed_form.us_per_call", "us")
    per_call("analysis.error_floor", 1e6, "analysis.error_floor.us_per_call", "us")
    point = span("analysis.pep_point")
    put("analysis.pep_point.calls", point.calls / reps, "count")
    put("analysis.pep_point.distinct_share", ratio(point.counts.get("distinct", 0), point.calls), "ratio")
    e1 = span("specials.exp_e1_scaled")
    put("specials.exp_e1_scaled.elements", e1.counts.get("elements", 0) / reps, "count")
    put("specials.exp_e1_scaled.cf_share", ratio(e1.counts.get("cf", 0), e1.counts.get("elements", 0)), "ratio")

    put("cli.self_share", layer_self("cli") / traced_wall, "ratio")
    put("trace.overhead_share", overhead, "ratio")
    return out


def self_time_report(spans: dict, reps: int, traced_wall: float) -> list:
    """Lines of the self-time table; per-span and per-layer self times sum to the traced wall."""
    lines = [f"traced wall {traced_wall:.4f} s over {reps} traced reps; self time by span:"]
    for label, span in sorted(spans.items(), key=lambda kv: -kv[1].self_time):
        counts = " ".join(f"{k}/rep={v / reps:.6g}" for k, v in sorted(span.counts.items()))
        counts = f"computed: {counts}" if counts else ""
        lines.append(
            f"  {label:32s} calls/rep={span.calls / reps:<9.6g} self={span.self_time:9.4f} s "
            f"share={span.self_time / traced_wall:6.3f}  {counts}"
        )
    by_layer = {layer: 0.0 for layer in LAYERS}
    for label, span in spans.items():
        by_layer[label.split(".")[0]] += span.self_time
    lines.append("self time by layer:")
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:12s} self={t:9.4f} s share={t / traced_wall:6.3f}")
    lines.append(f"  {'sum':12s} self={sum(by_layer.values()):9.4f} s (traced wall {traced_wall:.4f} s)")
    lines.append("computed counts come from argument and result array shapes (samples, symbols, "
                 "elements, cf: elements > 50) or argument sets (distinct); montecarlo.chunks "
                 "counts link.diff_encode calls")
    return lines
