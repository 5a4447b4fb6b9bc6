"""Per-layer metrics from the spans child.py records in a traced run.

Times named ``*_s`` are busy time summed over every call of the layer, on
all threads; ``*_p50``/``*_p90`` are per-call percentiles. A layer's self
time is its span minus the part of that span its child spans cover, the
children counted once however many threads ran them. Layers a workload
does not touch report 0. ``*_mb`` values are computed from array shapes,
not measured.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# bytes per OU trace sample held at once by simulate_intensity_trace:
# 2 float64 normal deviates, the complex drive, the complex field and the
# float64 intensity
TRACE_BYTES_PER_SAMPLE = 2 * 8 + 16 + 16 + 8

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("cli.import_s", "s"),
    ("scenario.parse_s", "s"),
    ("runner.run_s", "s"),
    ("runner.items", "count"),
    ("runner.fanout_busy_ratio", "ratio"),
    ("optics.fresnel_calls", "count"),
    ("optics.fresnel_s", "s"),
    ("optics.fresnel_us_p50", "us"),
    ("optics.chirp_calls", "count"),
    ("optics.chirp_s", "s"),
    ("optics.chirp_ms_p50", "ms"),
    ("optics.distinct_plans", "count"),
    ("optics.plan_reuse_ratio", "ratio"),
    ("optics.czt_build_ms", "ms"),
    ("optics.czt_apply_ms", "ms"),
    ("optics.plan_build_share", "ratio"),
    ("coherence.map_calls", "count"),
    ("coherence.map_s", "s"),
    ("coherence.passes_per_map", "count"),
    ("coherence.quad_points_final", "count"),
    ("coherence.useful_ratio", "ratio"),
    ("analytic.self_s", "s"),
    ("ensemble.realization_ms_p50", "ms"),
    ("ensemble.realization_ms_p90", "ms"),
    ("ensemble.draw_us_p50", "us"),
    ("ensemble.reduce_s", "s"),
    ("ensemble.records_mb", "MB"),
    ("coincidence.trace_s", "s"),
    ("coincidence.thin_start_s", "s"),
    ("coincidence.thin_stop_s", "s"),
    ("coincidence.tac_s", "s"),
    ("coincidence.estimate_s", "s"),
    ("coincidence.samples", "count"),
    ("coincidence.photons_start", "count"),
    ("coincidence.photons_stop", "count"),
    ("coincidence.coincidences", "count"),
    ("coincidence.useful_ratio", "ratio"),
    ("coincidence.trace_mb", "MB"),
    ("output.export_s", "s"),
    ("output.bytes", "B"),
    ("trace.overhead_s", "s"),
]

# metrics that must repeat exactly between traced runs of one input
COUNTS = {name for name, unit in METRICS if unit in ("count", "B", "MB")}


class _Span:
    __slots__ = ("id", "name", "t0", "t1", "parent", "thread", "attrs")

    def __init__(self, row):
        (self.id, self.name, self.t0, self.t1, self.parent, self.thread,
         self.attrs) = row

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _self_time(span: _Span, children) -> float:
    covered, end = 0.0, span.t0
    for c in sorted(children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            covered += hi - lo
            end = hi
    return span.dur - covered


def _plan(span: _Span) -> tuple:
    n, m, w, a = span.attrs["plan"]
    return (n, m, complex(*w), complex(*a))


def item_layers(record: dict, start_rate: float, workers: int) -> dict:
    """Per-layer metrics of one traced run (timed CZT figures excluded)."""
    spans = [_Span(row) for row in record["spans"]]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def busy(name):
        return sum(s.dur for s in by_name[name])

    out = {name: 0.0 for name, _ in METRICS}
    out["cli.import_s"] = record["import_s"]
    out["scenario.parse_s"] = busy("scenario.parse")
    out["runner.run_s"] = busy("runner.run")

    realizations = by_name["ensemble.realization"]
    rows = by_name["analytic.delta_g2"]
    traces = by_name["coincidence.trace"]
    if realizations:
        items, n_items = realizations + by_name["ensemble.draw"], len(realizations)
    elif rows:
        items, n_items = rows, len(rows)
    else:
        items = (traces + by_name["coincidence.thin"]
                 + by_name["coincidence.tac"])
        n_items = len(traces)
    out["runner.items"] = n_items
    if items:
        span = max(s.t1 for s in items) - min(s.t0 for s in items)
        out["runner.fanout_busy_ratio"] = (sum(s.dur for s in items)
                                           / (workers * span))

    fresnel = by_name["optics.fresnel"]
    chirps = by_name["optics.chirp"]
    out["optics.fresnel_calls"] = len(fresnel)
    out["optics.fresnel_s"] = busy("optics.fresnel")
    out["optics.fresnel_us_p50"] = 1e6 * percentile([s.dur for s in fresnel], 50)
    out["optics.chirp_calls"] = len(chirps)
    out["optics.chirp_s"] = busy("optics.chirp")
    out["optics.chirp_ms_p50"] = 1e3 * percentile([s.dur for s in chirps], 50)
    calls = len(fresnel) + len(chirps)
    plans = Counter(_plan(s) for s in fresnel + chirps)
    out["optics.distinct_plans"] = len(plans)
    out["optics.plan_reuse_ratio"] = 1.0 - len(plans) / calls if calls else 0.0

    maps = by_name["coherence.map"]
    out["coherence.map_calls"] = len(maps)
    out["coherence.map_s"] = busy("coherence.map")
    if maps:
        passes, useful, work = [], 0, 0
        for m in maps:
            sums = sorted((c for c in children[m.id] if c.name == "optics.chirp"),
                          key=lambda c: c.t0)
            n_rows = m.attrs["rows"]
            passes.append(len(sums) / n_rows)
            useful += n_rows * sums[-1].attrs["plan"][0]
            work += sum(c.attrs["plan"][0] for c in sums)
        out["coherence.passes_per_map"] = statistics.fmean(passes)
        out["coherence.quad_points_final"] = max(c.attrs["plan"][0] for c in chirps)
        out["coherence.useful_ratio"] = useful / work
    out["analytic.self_s"] = sum(_self_time(s, children[s.id]) for s in rows)

    out["ensemble.realization_ms_p50"] = 1e3 * percentile(
        [s.dur for s in realizations], 50)
    out["ensemble.realization_ms_p90"] = 1e3 * percentile(
        [s.dur for s in realizations], 90)
    out["ensemble.draw_us_p50"] = 1e6 * percentile(
        [s.dur for s in by_name["ensemble.draw"]], 50)
    mc = by_name["ensemble.montecarlo"]
    out["ensemble.reduce_s"] = sum(_self_time(s, children[s.id]) for s in mc)
    out["ensemble.records_mb"] = sum(
        s.attrs["realizations"] * s.attrs["detector_points"] * 8 for s in mc) / 1e6

    thins = by_name["coincidence.thin"]
    starts = [s for s in thins if s.attrs["rate"] == start_rate]
    stops = [s for s in thins if s.attrs["rate"] != start_rate]
    tacs = by_name["coincidence.tac"]
    out["coincidence.trace_s"] = busy("coincidence.trace")
    out["coincidence.thin_start_s"] = sum(s.dur for s in starts)
    out["coincidence.thin_stop_s"] = sum(s.dur for s in stops)
    out["coincidence.tac_s"] = busy("coincidence.tac")
    out["coincidence.estimate_s"] = busy("coincidence.estimate")
    if traces:
        n = len(traces)
        samples = sum(s.attrs["samples"] for s in traces)
        photons_start = sum(s.attrs["photons"] for s in starts)
        coincidences = sum(s.attrs["coincidences"] for s in tacs)
        out["coincidence.samples"] = samples / n
        out["coincidence.photons_start"] = photons_start / n
        out["coincidence.photons_stop"] = sum(s.attrs["photons"] for s in stops) / n
        out["coincidence.coincidences"] = coincidences / n
        out["coincidence.useful_ratio"] = coincidences / photons_start
        out["coincidence.trace_mb"] = samples / n * TRACE_BYTES_PER_SAMPLE / 1e6

    out["output.export_s"] = busy("output.export")
    out["output.bytes"] = sum(s.attrs["bytes"] for s in by_name["output.export"])
    return out


def plan_calls(record: dict) -> Counter:
    """Calls per distinct chirp-z plan (n, m, w, a) in one traced run."""
    spans = (_Span(row) for row in record["spans"])
    return Counter(_plan(s) for s in spans
                   if s.name in ("optics.fresnel", "optics.chirp"))


def _median_time(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def czt_costs(plans: Counter) -> tuple:
    """Call-weighted mean seconds to build and to apply scipy's CZT plan
    at the traced plan signatures."""
    from scipy.signal import CZT

    rng = np.random.default_rng(0)
    build = apply = 0.0
    for (n, m, w, a), calls in plans.items():
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        plan = CZT(n, m, w, a)
        build += calls * _median_time(lambda: CZT(n, m, w, a))
        apply += calls * _median_time(lambda: plan(x))
    total = sum(plans.values())
    return build / total, apply / total


def per_layer(records, start_rate: float, workers: int,
              overhead_s: float) -> dict:
    """Per-layer metrics over the traced runs of one input: the median of
    each timing, the counts of the first run (they repeat exactly)."""
    each = [item_layers(r, start_rate, workers) for r in records]
    out = {}
    for name, _ in METRICS:
        values = [e[name] for e in each]
        if name in COUNTS and len(set(values)) > 1:
            print(f"warning: count {name} differs between traced runs: {values}")
        out[name] = values[0] if name in COUNTS else statistics.median(values)
    plans = plan_calls(records[0])
    if plans:
        build_s, apply_s = czt_costs(plans)
        out["optics.czt_build_ms"] = 1e3 * build_s
        out["optics.czt_apply_ms"] = 1e3 * apply_s
        optics_s = out["optics.fresnel_s"] + out["optics.chirp_s"]
        out["optics.plan_build_share"] = sum(plans.values()) * build_s / optics_s
    out["trace.overhead_s"] = overhead_s
    return out
