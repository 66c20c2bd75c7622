"""Spans and per-layer metrics for the benchmark's traced run.

The tracer wraps the pipeline's public functions from outside, under every
name the talentflow modules bind them to (talentflow.reports and
talentflow.cli included), so a traced pass runs the real composition, such
as write_all_reports, and not a copy of it. Nothing under src/ changes.

Each call of a wrapped function records a span: its name, start, end and
the span it was called from. A span's self time is its duration minus the
durations of its child spans; a layer's time metric is the sum of the self
times of its functions' spans. Counts are read from the return values at
the same boundaries.
"""

from __future__ import annotations

import functools
import json
import timeit
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import talentflow
from talentflow import cli, graphalgo, hopgraph, hops, ingest, metrics, reports, synthgen

REPORTS = ("report_default", "report_dirty")
GRAPHS = ("graph_sweep",)
ALL = REPORTS + GRAPHS


# The per-layer metrics, with their units, as BENCHMARK.json lists them.
PER_LAYER: list[dict] = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)["per_layer"]

# Per-layer metric -> the workloads where the traced run must report it.
APPLIES: dict[str, tuple[str, ...]] = {
    "ingest.s": ALL,
    "ingest.records": ALL,
    "ingest.rejected": ALL,
    "ingest.industry_repairs": ALL,
    "ingest.accepted_ratio": ALL,
    "hops.s": ALL,
    "hops.count": ALL,
    "hops.invalid_period_jobs": ALL,
    "metrics.index_s": REPORTS,
    "metrics.cohorts_s": REPORTS,
    "metrics.level_gains_s": REPORTS,
    "metrics.promotion_s": REPORTS,
    "metrics.level_gain_records": REPORTS,
    "metrics.supported_hop_ratio": REPORTS,
    "metrics.cohort_cells_suppressed": REPORTS,
    "metrics.future_jobs": REPORTS,
    "hopgraph.build_s": ALL,
    "hopgraph.export_s": GRAPHS,
    "hopgraph.nodes": ALL,
    "hopgraph.edges": ALL,
    "graphalgo.degree_s": ALL,
    "graphalgo.pagerank_s": ALL,
    "graphalgo.pagerank_iterations": ALL,
    "graphalgo.pagerank_unconverged": ALL,
    "graphalgo.components_s": ALL,
    "graphalgo.powerlaw_s": GRAPHS,  # write_all_reports fits no power law
    "graphalgo.powerlaw_warnings": ALL,
    "graphalgo.ccdf_topk_s": ALL,
    "reports.write_s": REPORTS,
    "reports.bytes": REPORTS,
    "synthgen.generate_s": ALL,
    "trace.overhead_s": ALL,
}

# Wrapped function -> the layer time metric its self time adds to.
TRACED: dict[tuple[object, str], str] = {
    (ingest, "ingest_profiles"): "ingest.s",
    (ingest, "filter_active"): "ingest.s",
    (hops, "extract_all_hops"): "hops.s",
    (metrics.CorpusIndex, "build"): "metrics.index_s",
    (metrics, "external_hop_fraction"): "metrics.cohorts_s",
    (metrics, "level_gains"): "metrics.level_gains_s",
    (metrics, "promotion_summary"): "metrics.promotion_s",
    (metrics, "promotion_by_stay"): "metrics.promotion_s",
    (hopgraph, "build_graph"): "hopgraph.build_s",
    (hopgraph, "export_graph"): "hopgraph.export_s",
    (graphalgo, "degree_centrality"): "graphalgo.degree_s",
    (graphalgo, "weighted_pagerank"): "graphalgo.pagerank_s",
    (graphalgo, "component_report"): "graphalgo.components_s",
    (graphalgo, "fit_power_law"): "graphalgo.powerlaw_s",
    (graphalgo, "centrality_ccdf"): "graphalgo.ccdf_topk_s",
    (graphalgo, "top_k"): "graphalgo.ccdf_topk_s",
    (reports, "write_all_reports"): "reports.write_s",
    (synthgen, "generate"): "synthgen.generate_s",
}

_LAYER_OF = {name: layer for (_owner, name), layer in TRACED.items()}

# Every module namespace that may bind a traced function by name.
_NAMESPACES = (talentflow, cli, graphalgo, hopgraph, hops, ingest, metrics, reports, synthgen)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_ingest(tracer: "Tracer", result) -> None:
    _profiles, report = result
    tracer.add("ingest.records", report.total_records)
    tracer.add("ingest.rejected", report.rejected_records)
    tracer.add("ingest.industry_repairs", report.industry_repairs)


def _count_hops(tracer: "Tracer", result) -> None:
    hop_list, diag = result
    tracer.add("hops.count", len(hop_list))
    tracer.add("hops.invalid_period_jobs", diag.invalid_period_jobs)


def _count_cohorts(tracer: "Tracer", stats) -> None:
    tracer.add(
        "metrics.cohort_cells_suppressed",
        sum(cell.suppressed for cell in stats.cohorts.values()),
    )


def _count_graph(tracer: "Tracer", graph) -> None:
    tracer.add("hopgraph.nodes", len(graph.nodes))
    tracer.add("hopgraph.edges", len(graph.edges))


def _count_pagerank(tracer: "Tracer", table) -> None:
    tracer.add("graphalgo.pagerank_iterations", table.iterations)
    tracer.add("graphalgo.pagerank_unconverged", int(not table.converged))
    tracer.pagerank_tables.append(table)


def _count_report_bytes(tracer: "Tracer", paths) -> None:
    tracer.add("reports.bytes", sum(Path(p).stat().st_size for p in paths))


_COUNTERS: dict[str, Callable[["Tracer", object], None]] = {
    "ingest_profiles": _count_ingest,
    "extract_all_hops": _count_hops,
    "build": lambda t, index: t.add("metrics.future_jobs", index.future_jobs),
    "external_hop_fraction": _count_cohorts,
    "level_gains": lambda t, records: t.add("metrics.level_gain_records", len(records)),
    "build_graph": _count_graph,
    "weighted_pagerank": _count_pagerank,
    "write_all_reports": _count_report_bytes,
}


class Tracer:
    """Records spans and counts while installed; restores the program on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.pagerank_tables: list = []
        self._open: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    @contextmanager
    def _counting_warnings(self) -> Iterator[None]:
        """Count the RuntimeWarnings of a power-law fit, also of one that raises."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                yield
            finally:
                self.add(
                    "graphalgo.powerlaw_warnings",
                    sum(issubclass(w.category, RuntimeWarning) for w in caught),
                )

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(name)
        catching = self._counting_warnings if name == "fit_power_law" else nullcontext

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                with catching():
                    result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if counter is not None:
                counter(self, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced function under each name it is bound to."""
        undo: list[tuple[object, str, object]] = []
        try:
            for owner, name in TRACED:
                if isinstance(owner, type):
                    original = owner.__dict__[name]  # a classmethod
                    undo.append((owner, name, original))
                    setattr(owner, name, classmethod(self._wrap(name, original.__func__)))
                    continue
                original = getattr(owner, name)
                wrapper = self._wrap(name, original)
                for namespace in _NAMESPACES:
                    if namespace.__dict__.get(name) is original:
                        undo.append((namespace, name, original))
                        setattr(namespace, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [span.duration - child_time[i] for i, span in enumerate(self.spans)]

    def values(self) -> dict[str, float]:
        """Raw layer values: self times summed per layer, plus the counts."""
        out: dict[str, float] = dict(self.counts)
        for span, self_time in zip(self.spans, self.self_times()):
            layer = _LAYER_OF[span.name]
            out[layer] = out.get(layer, 0.0) + self_time
        return out


def layer_metrics(values: dict[str, float]) -> dict[str, float]:
    """Add the ratios to merged raw values, where their bases were recorded."""
    out = dict(values)
    records = values.get("ingest.records")
    if records:
        out["ingest.accepted_ratio"] = (records - values["ingest.rejected"]) / records
    hop_count = values.get("hops.count")
    if hop_count and "metrics.level_gain_records" in values:
        out["metrics.supported_hop_ratio"] = values["metrics.level_gain_records"] / hop_count
    return out


def merge(*parts: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0.0) + value
    return out


def cost_per_span(calls: int = 20_000) -> float:
    """Seconds the tracer adds to one wrapped call: a wrapped no-op minus a bare one."""

    def noop() -> None:
        return None

    wrapped = Tracer()._wrap("noop", noop)
    bare = min(timeit.repeat(noop, number=calls, repeat=5))
    traced = min(timeit.repeat(wrapped, number=calls, repeat=5))
    return max(traced - bare, 0.0) / calls


def missing(values: dict[str, float], workload: str) -> list[str]:
    """Per-layer metrics that apply to the workload but did not fire."""
    return [m["name"] for m in PER_LAYER
            if workload in APPLIES[m["name"]] and m["name"] not in values]
