"""The benchmark's workloads: generator specs, set-up, one timed pass, oracles.

Every workload is seeded by the benchmark's --seed and hands the program
only the generated corpus. A pass calls the pipeline through module
attributes (ingest.ingest_profiles, reports.write_all_reports, ...), so the
traced run sees every call. Oracle checks return (name, ok) pairs and run
outside the timed part of a pass.
"""

from __future__ import annotations

import csv
import json
import math
import resource
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from talentflow import graphalgo, hopgraph, hops, ingest, reports, synthgen
from talentflow.graphalgo import ComponentMode, Direction, InsufficientTailError
from talentflow.hopgraph import ExportFormat, GraphLevel
from talentflow.model import AnalysisConfig
from talentflow.synthgen import GeneratorSpec

from noise import NoiseCounts, inject

N_USERS = 5_000
SWEEP_MIN_SUPPORT = (1, 5, 10, 25)
EXPORT_MIN_SUPPORT = 10
TOP_K = 20
PAGERANK_SUM_TOL = 1e-9

Check = tuple[str, bool]
RunInChild = Callable[..., dict]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def default_spec(seed: int, n_users: int = N_USERS) -> GeneratorSpec:
    return GeneratorSpec(seed=seed, n_users=n_users)


def wide_spec(seed: int, n_users: int = N_USERS) -> GeneratorSpec:
    """40 industries with 10-title ladders and 25 organizations each."""
    ladders = {
        f"sector {i:02d}": tuple(f"grade {r:02d}" for r in range(10)) for i in range(40)
    }
    return GeneratorSpec(
        seed=seed, n_users=n_users, titles_per_industry=ladders, orgs_per_industry=25
    )


def powerlaw_values(table: graphalgo.CentralityTable) -> list[int]:
    """The values `talentflow graph powerlaw` fits for a centrality table."""
    if table.metric is graphalgo.CentralityMetric.PAGERANK:
        return [max(1, round(s * 1e6)) for s in table.scores.values()]
    return [int(s) for s in table.scores.values() if s >= 1]


def same_files(a: Path, b: Path) -> list[Check]:
    """One check per file: same names in both directories, same bytes."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        (f"{name} is byte-identical to {b.name}/{name}",
         (a / name).is_file() and (b / name).is_file()
         and (a / name).read_bytes() == (b / name).read_bytes())
        for name in names
    ]


@dataclass
class Corpus:
    spec: GeneratorSpec
    clean_path: Path
    path: Path  # the corpus a pass reads
    truth: dict
    n_hops: int  # as the generator reports it
    noise: NoiseCounts | None


def make_corpus(spec: GeneratorSpec, workdir: Path, dirty: bool) -> Corpus:
    clean = workdir / "clean.jsonl"
    truth_path = workdir / "truth.json"
    result = synthgen.generate(spec, clean, truth_path)
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    if not dirty:
        return Corpus(spec, clean, clean, truth, result.n_hops, None)
    path = workdir / "dirty.jsonl"
    noise = inject(clean, path, spec.seed)
    return Corpus(spec, clean, path, truth, result.n_hops, noise)


def truth_checks(n_hops: int, truth: dict) -> list[Check]:
    bins = truth["work_exp_bins"]
    return [(
        "generator n_hops equals the sidecar's hop total",
        n_hops == sum(b["external_hops"] + b["internal_hops"] for b in bins),
    )]


def cohort_checks(out_dir: Path, corpus: Corpus) -> list[Check]:
    """Work-experience marginals of cohort_fractions.csv against the sidecar."""
    want = {
        float(b["lower_years"]): (b["external_hops"], b["internal_hops"])
        for b in corpus.truth["work_exp_bins"]
    }
    got: dict[str, Counter] = defaultdict(Counter)
    with open(out_dir / "cohort_fractions.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["axis1"] != "work_exp":
                continue
            cell = got[row["cross"]]
            lower = float(row["bin1_lower"])
            cell[(lower, 0)] += int(row["external_hops"])
            cell[(lower, 1)] += int(row["internal_hops"])
    checks = truth_checks(corpus.n_hops, corpus.truth)
    for cross in ("work_exp_x_job_age", "work_exp_x_skill_count"):
        cell = got.get(cross, Counter())
        marginals = {
            lower: (cell[(lower, 0)], cell[(lower, 1)]) for lower, _ in cell
        }
        checks.append((f"{cross}: hop count equals n_hops",
                       sum(cell.values()) == corpus.n_hops))
        checks.append((f"{cross}: work_exp marginals equal the sidecar", marginals == want))
    return checks


def timed_report(path: Path, curr_date, out_dir: Path) -> tuple[float, ingest.IngestReport]:
    """One report-all pass from the corpus path; returns (seconds, ingest report)."""
    start = perf_counter()
    profiles, report = ingest.ingest_profiles(path)
    reports.write_all_reports(profiles, AnalysisConfig(curr_date=curr_date), out_dir)
    return perf_counter() - start, report


class ReportWorkload:
    """ingest_profiles + write_all_reports on the default spec at 5k users."""

    def __init__(self, name: str, dirty: bool) -> None:
        self.name = name
        self.dirty = dirty

    def spec(self, seed: int, n_users: int = N_USERS) -> GeneratorSpec:
        return default_spec(seed, n_users)

    def setup(self, spec: GeneratorSpec, workdir: Path) -> Corpus:
        return make_corpus(spec, workdir, self.dirty)

    def run_pass(self, corpus: Corpus, out_dir: Path) -> dict:
        wall, report = timed_report(corpus.path, corpus.spec.curr_date, out_dir)
        result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb()}
        if self.dirty:
            noise = corpus.noise
            result["checks"] = [
                ("rejection_reasons equal the injected counts",
                 report.rejection_reasons == noise.rejection_reasons()),
                ("industry_repairs equal the injected conflicts",
                 report.industry_repairs == noise.industry_conflicts),
            ]
        else:
            result["checks"] = cohort_checks(out_dir, corpus)
        return result

    def _reference(self, corpus: Corpus, out_dir: Path) -> dict:
        timed_report(corpus.clean_path, corpus.spec.curr_date, out_dir)
        return {"checks": cohort_checks(out_dir, corpus)}

    def check_run(
        self, corpus: Corpus, out_dirs: list[Path], workdir: Path, run_in_child: RunInChild
    ) -> list[Check]:
        """report_dirty: every pass's CSVs equal the clean corpus's, byte for byte."""
        if not self.dirty:
            return []
        ref = workdir / "clean_reports"
        result = run_in_child(self._reference, corpus, ref)
        if "error" in result:
            return [(f"reference pass on the clean corpus: {result['error']}", False)]
        checks = [tuple(c) for c in result["checks"]]
        for out_dir in out_dirs:
            checks.extend(same_files(out_dir, ref))
        return checks

    def probe(self, pagerank_tables: list[graphalgo.CentralityTable]) -> None:
        """Fit the pass's PageRank values the way `graph powerlaw` would.

        write_all_reports fits no power law; this records how many
        RuntimeWarnings the fits emit on the default corpus's graphs.
        """
        for table in pagerank_tables:
            try:
                graphalgo.fit_power_law(powerlaw_values(table))
            except InsufficientTailError:
                pass


@dataclass
class Loaded:
    """graph_sweep's set-up result: the ingested corpus and its hops."""

    config: AnalysisConfig
    active: list
    hops: list
    n_hops: int
    truth: dict


def graph_checks(
    ms: int,
    graph: hopgraph.HopGraph,
    pagerank: graphalgo.CentralityTable,
    components: graphalgo.ComponentReport,
    distinct: hopgraph.HopGraph | None,
    loaded: Loaded,
) -> list[Check]:
    where = f"min_support={ms} {graph.level.value}"
    n = len(graph.nodes)
    sccs = graphalgo.connected_components(graph, ComponentMode.STRONG)
    wccs = graphalgo.connected_components(graph, ComponentMode.WEAK)
    checks = [
        (f"{where}: PageRank sums to 1",
         abs(math.fsum(pagerank.scores.values()) - 1.0) <= PAGERANK_SUM_TOL),
        (f"{where}: SCC sizes sum to the node count",
         sum(map(len, sccs)) == n and len(sccs) == components.scc_count),
        (f"{where}: WCC sizes sum to the node count",
         sum(map(len, wccs)) == n and len(wccs) == components.wcc_count),
    ]
    if ms == 1 and graph.level is GraphLevel.JOB:
        checks.append((f"{where}: edge weight equals the hop count",
                       graph.total_edge_weight == len(loaded.hops) == loaded.n_hops))
    if distinct is not None:
        checks.append((
            f"{where}: distinct-user weights never exceed hop weights",
            distinct.nodes == graph.nodes
            and all(w <= graph.edges.get(e, 0) for e, w in distinct.edges.items()),
        ))
    return checks


class GraphSweep:
    """build_graph and the graph analytics over a min_support sweep, wide corpus."""

    name = "graph_sweep"

    def spec(self, seed: int, n_users: int = N_USERS) -> GeneratorSpec:
        return wide_spec(seed, n_users)

    def setup(self, spec: GeneratorSpec, workdir: Path) -> Loaded:
        corpus = make_corpus(spec, workdir, dirty=False)
        profiles, _report = ingest.ingest_profiles(corpus.path)
        active = ingest.filter_active(profiles)
        config = AnalysisConfig(curr_date=spec.curr_date)
        hop_list, _diag = hops.extract_all_hops(active, config)
        return Loaded(config, active, hop_list, corpus.n_hops, corpus.truth)

    def run_pass(self, loaded: Loaded, out_dir: Path) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        wall = 0.0
        checks = truth_checks(loaded.n_hops, loaded.truth)
        nodes: dict[GraphLevel, list[int]] = defaultdict(list)
        for ms in SWEEP_MIN_SUPPORT:
            config = replace(loaded.config, min_support=ms)
            for level in GraphLevel:
                start = perf_counter()
                graph = hopgraph.build_graph(loaded.hops, level, config, profiles=loaded.active)
                tables = [
                    graphalgo.degree_centrality(graph, Direction.IN),
                    graphalgo.degree_centrality(graph, Direction.OUT),
                    graphalgo.weighted_pagerank(graph, config),
                ]
                components = graphalgo.component_report(graph)
                for table in tables:
                    graphalgo.centrality_ccdf(table)
                    graphalgo.top_k(table, TOP_K)
                    graphalgo.fit_power_law(powerlaw_values(table))
                distinct = None
                if ms == EXPORT_MIN_SUPPORT:
                    distinct = hopgraph.build_graph(
                        loaded.hops, level, config, profiles=loaded.active,
                        distinct_users=True,
                    )
                    for fmt in ExportFormat:
                        hopgraph.export_graph(graph, fmt, out_dir / f"{level.value}.{fmt.value}")
                wall += perf_counter() - start
                nodes[level].append(len(graph.nodes))
                checks.extend(graph_checks(ms, graph, tables[2], components, distinct, loaded))
        rss = peak_rss_mb()
        for level, counts in nodes.items():
            checks.append((f"{level.value}: node counts do not grow with min_support",
                           all(a >= b for a, b in zip(counts, counts[1:]))))
        return {"wall_s": wall, "peak_rss_mb": rss, "checks": checks}

    def check_run(
        self, loaded: Loaded, out_dirs: list[Path], workdir: Path, run_in_child: RunInChild
    ) -> list[Check]:
        return []

    def probe(self, pagerank_tables: list[graphalgo.CentralityTable]) -> None:
        pass


WORKLOADS = {
    w.name: w
    for w in (
        ReportWorkload("report_default", dirty=False),
        ReportWorkload("report_dirty", dirty=True),
        GraphSweep(),
    )
}
