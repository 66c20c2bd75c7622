"""Machine-readable report files for a full analysis run.

Every writer is bit-deterministic: rows are emitted in sorted order, floats
through one fixed formatter, and files end with a single newline. The
`report-all` entry point runs the whole pipeline on an ingested corpus and
drops nine CSVs into the output directory:

    distributions.csv        corpus histograms (skills, experience, job age)
    cohort_fractions.csv     external-hop fraction cross-tabulations
    promotion_table.csv      promotion/demotion counts by hop kind
    level_gain_hist.csv      level-gain histogram by hop kind
    stay_analysis.csv        promotion mix by duration of stay
    graph_stats.csv          size/sparsity/component stats, both graphs
    centrality_ccdf_job.csv  CCDF per centrality metric, job graph
    top20_job.csv            top-20 job nodes per centrality metric
    top20_org.csv            top-20 organizations per centrality metric

It takes the profiles or their StintTable and counts no dropped stints: the
CLI's loader prints the table's drops before any report is written.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graphalgo import (
    CentralityMetric,
    CentralityTable,
    centrality,
    centrality_ccdf,
    component_report,
    top_k,
)
from .hopgraph import GraphLevel, HopGraph, build_graph, has_moves, require_nodes
from .hops import extract_all_hops
from .ingest import filter_active
from .metrics import (
    CohortAxis,
    CohortStats,
    CorpusIndex,
    LevelGainRecord,
    LevelGainTable,
    PromotionSummary,
    StayBin,
    external_hop_fraction,
    level_gains,
    promotion_by_stay,
    promotion_summary,
)
from .model import AnalysisConfig, StintTable, UserProfile, cell_counts, year_bins

TOP_K = 20
STAY_BIN_MONTHS = 12
GAIN_BIN_MONTHS = 12
SKILL_HIST_WIDTH = 5


def fmt(value: object) -> str:
    """One canonical cell renderer; None becomes the empty cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])
    return path


def _histogram(bins: np.ndarray, width: float) -> list[tuple[float, float, int]]:
    """(lower, upper, count) per occupied bin k of [k*width, (k+1)*width), k ascending."""
    (occupied,), sizes, _ = cell_counts(bins)
    return [(k * width, (k + 1) * width, n) for k, n in zip(occupied.tolist(), sizes.tolist())]


def write_distributions(
    profiles: Iterable[UserProfile] | StintTable, config: AnalysisConfig, path: Path
) -> Path:
    """Histograms of skill counts, work experience and job age.

    Takes the profiles or their StintTable; the time axes bin whole years,
    an exact floor division of the months (model.year_bins).
    """
    stints = StintTable.of(profiles, config.curr_date)
    wk_months = stints.work_exp[stints.work_exp >= 0]
    age_months = config.curr_date.ordinal - stints.start
    rows = []
    for lo, hi, n in _histogram(stints.skill_count // SKILL_HIST_WIDTH, SKILL_HIST_WIDTH):
        rows.append(["skill_count", lo, hi, n])
    for lo, hi, n in _histogram(year_bins(wk_months, 1), 1.0):
        rows.append(["work_experience_years", lo, hi, n])
    for lo, hi, n in _histogram(year_bins(age_months, 1), 1.0):
        rows.append(["job_age_years", lo, hi, n])
    return write_rows(path, ["metric", "bin_lower", "bin_upper", "count"], rows)


COHORT_HEADER = [
    "cross",
    "axis1", "bin1_lower", "bin1_upper",
    "axis2", "bin2_lower", "bin2_upper",
    "external_hops", "internal_hops", "support", "fraction", "suppressed",
]


def cohort_rows(cross_name: str, stats: CohortStats) -> list[list]:
    rows = []
    for specs, cell in stats.sorted_cells():
        row: list = [cross_name]
        for spec in specs:
            row.extend([spec.axis.value, spec.bin_lower, spec.bin_upper])
        while len(row) < 7:
            row.append(None)
        row.extend(
            [cell.external_hops, cell.internal_hops, cell.support, cell.fraction, cell.suppressed]
        )
        rows.append(row)
    return rows


def write_cohorts(crosses: list[tuple[str, CohortStats]], path: Path) -> Path:
    rows = []
    for name, stats in crosses:
        rows.extend(cohort_rows(name, stats))
    return write_rows(path, COHORT_HEADER, rows)


def write_promotion_table(summary: PromotionSummary, path: Path) -> Path:
    rows = [
        ["external", summary.external_promotions, summary.external_demotions,
         summary.external_neutral, summary.external_total, summary.p_promotion_given_external],
        ["internal", summary.internal_promotions, summary.internal_demotions,
         summary.internal_neutral, summary.internal_total, summary.p_promotion_given_internal],
        ["total", summary.external_promotions + summary.internal_promotions,
         summary.external_demotions + summary.internal_demotions,
         summary.external_neutral + summary.internal_neutral,
         summary.total, summary.p_promotion],
    ]
    return write_rows(
        path, ["kind", "promotions", "demotions", "neutral", "total", "p_promotion"], rows
    )


def write_level_gain_hist(records: Iterable[LevelGainRecord], path: Path) -> Path:
    table = LevelGainTable.of(records)
    k = np.floor_divide(table.gain, GAIN_BIN_MONTHS).astype(np.int64)
    # "external" sorts before "internal", so external rows come first.
    internal = ~table.external
    (kinds, k_bins), sizes, _ = cell_counts(internal, k)
    rows = [
        ["internal" if is_internal else "external", b * GAIN_BIN_MONTHS,
         (b + 1) * GAIN_BIN_MONTHS, n]
        for is_internal, b, n in zip(kinds.tolist(), k_bins.tolist(), sizes.tolist())
    ]
    return write_rows(
        path, ["kind", "bin_lower_months", "bin_upper_months", "count"], rows
    )


def write_stay_analysis(bins: list[StayBin], path: Path) -> Path:
    rows = [
        [b.kind.value, b.lower_months, b.upper_months, b.n_hops, b.n_promotions,
         b.fraction, b.suppressed]
        for b in bins
    ]
    return write_rows(
        path,
        ["kind", "bin_lower_months", "bin_upper_months", "n_hops", "n_promotions",
         "fraction", "suppressed"],
        rows,
    )


def graph_stats_row(name: str, graph: HopGraph) -> list:
    comp = component_report(graph)
    return [
        name, len(graph.nodes), len(graph.edges), graph.sparsity(),
        graph.self_loop_mass, graph.total_edge_weight,
        comp.scc_count, comp.largest_scc_size, comp.largest_scc_fraction,
        comp.second_scc_size,
        comp.wcc_count, comp.largest_wcc_size, comp.largest_wcc_fraction,
        comp.second_wcc_size,
    ]


GRAPH_STATS_HEADER = [
    "graph", "nodes", "edges", "sparsity", "self_loop_weight", "total_edge_weight",
    "scc_count", "largest_scc_size", "largest_scc_fraction", "second_scc_size",
    "wcc_count", "largest_wcc_size", "largest_wcc_fraction", "second_wcc_size",
]


def write_graph_stats(graphs: list[tuple[str, HopGraph]], path: Path) -> Path:
    return write_rows(
        path, GRAPH_STATS_HEADER, [graph_stats_row(name, g) for name, g in graphs]
    )


def write_ccdfs(tables: list[CentralityTable], path: Path) -> Path:
    rows = []
    for table in tables:
        for value, frac in centrality_ccdf(table):
            rows.append([table.metric.value, value, frac])
    return write_rows(path, ["metric", "value", "ccdf"], rows)


def top_rows(table: CentralityTable, level: GraphLevel, k: int) -> list[list]:
    rows = []
    for rank, node in enumerate(top_k(table, k), start=1):
        if level is GraphLevel.JOB:
            rows.append([table.metric.value, rank, node.title, node.industry,
                         table.scores[node]])
        else:
            rows.append([table.metric.value, rank, node, table.scores[node]])
    return rows


def write_top_k(
    tables: list[CentralityTable], level: GraphLevel, path: Path, k: int = TOP_K
) -> Path:
    if level is GraphLevel.JOB:
        header = ["metric", "rank", "title", "industry", "score"]
    else:
        header = ["metric", "rank", "organization", "score"]
    rows = []
    for table in tables:
        rows.extend(top_rows(table, level, k))
    return write_rows(path, header, rows)


def centrality_tables(graph: HopGraph, config: AnalysisConfig) -> list[CentralityTable]:
    """One table per CentralityMetric, in its order: in, out, PageRank."""
    if not graph.nodes:
        return []
    return [centrality(graph, metric, config) for metric in CentralityMetric]


COHORT_CROSSES = (
    ("work_exp_x_job_age", (CohortAxis.WORK_EXP, CohortAxis.JOB_AGE)),
    ("work_exp_x_skill_count", (CohortAxis.WORK_EXP, CohortAxis.SKILL_COUNT)),
)


def write_all_reports(
    profiles: Iterable[UserProfile] | StintTable,
    config: AnalysisConfig,
    out_dir: str | Path,
    unconverged: list[GraphLevel] | None = None,
) -> list[Path]:
    """Run the full pipeline on ingested profiles and write all nine reports.

    profiles is a ProfileTable, UserProfile objects or their StintTable at
    the config's date. The active profiles' stints are read once, into one
    StintTable that every stage shares (filter_active). The graph levels
    whose PageRank hit the config's pagerank_iteration_cap are appended to
    unconverged when given.
    Raises ValueError, before writing anything, when no profile is active
    and when min_support pruning removes every node of a graph level that
    has moves.

    The stages run in the order of the files they write, and each
    intermediate dies after its last reader. The stint table, the hops and
    both graphs come first, so the refusals precede any write; then the
    distributions, the cohort crosses over the corpus index, and the
    promotion, level-gain and stay reports over the level gains. All of
    those made here are gone before the centrality stage and the four graph
    reports, which read only the two graphs. A LevelGainTable holds its
    HopTable, that its StintTable, and that the active profiles, so none
    of them is freed while the level gains live.
    """
    out_dir = Path(out_dir)
    job_graph, org_graph, written = _write_stint_reports(profiles, config, out_dir)
    job_tables = centrality_tables(job_graph, config)
    org_tables = centrality_tables(org_graph, config)
    if unconverged is not None:
        for level, tables in ((GraphLevel.JOB, job_tables), (GraphLevel.ORG, org_tables)):
            if not all(t.converged for t in tables):
                unconverged.append(level)
    return written + [
        write_graph_stats(
            [("job", job_graph), ("org", org_graph)], out_dir / "graph_stats.csv"
        ),
        write_ccdfs(job_tables, out_dir / "centrality_ccdf_job.csv"),
        write_top_k(job_tables, GraphLevel.JOB, out_dir / "top20_job.csv"),
        write_top_k(org_tables, GraphLevel.ORG, out_dir / "top20_org.csv"),
    ]


def _write_stint_reports(
    profiles: Iterable[UserProfile] | StintTable,
    config: AnalysisConfig,
    out_dir: Path,
) -> tuple[HopGraph, HopGraph, list[Path]]:
    """write_all_reports' refusals and its first five reports; returns both graphs.

    Every table made here dies when it returns.
    """
    stints = StintTable.of(filter_active(profiles), config.curr_date)
    active = stints.source
    if not len(active):
        raise ValueError("no active profiles: reports need one with an education entry and a skill")

    hops, _drops = extract_all_hops(stints, config)
    job_graph = build_graph(hops, GraphLevel.JOB, config, profiles=stints)
    org_graph = build_graph(hops, GraphLevel.ORG, config, profiles=stints)
    # A level with moves that pruning left without a node is refused; a
    # level without moves has a truly empty graph, whose rows read zero.
    for level, graph in ((GraphLevel.JOB, job_graph), (GraphLevel.ORG, org_graph)):
        if has_moves(hops, level):
            require_nodes(graph)

    out_dir.mkdir(parents=True, exist_ok=True)
    written = [write_distributions(stints, config, out_dir / "distributions.csv")]
    index = CorpusIndex.build(stints, config)
    written.append(write_cohorts(
        [(name, external_hop_fraction(hops, axes, index, active))
         for name, axes in COHORT_CROSSES],
        out_dir / "cohort_fractions.csv",
    ))
    records = level_gains(hops, index)
    written += [
        write_promotion_table(promotion_summary(records), out_dir / "promotion_table.csv"),
        write_level_gain_hist(records, out_dir / "level_gain_hist.csv"),
        write_stay_analysis(
            promotion_by_stay(records, STAY_BIN_MONTHS, config), out_dir / "stay_analysis.csv"
        ),
    ]
    return job_graph, org_graph, written
