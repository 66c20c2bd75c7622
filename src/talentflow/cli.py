"""Command-line front-end for the talent-flow pipeline.

Subcommands: ingest, hops, metrics {cohorts,levels,promotions,stay},
graph {build,analyze,components,powerlaw}, synth, report-all. Exit codes:
0 on success, 1 with a one-line diagnostic on pipeline failure, 2 on usage
errors. The analysis date defaults to the latest date present in the
corpus so unattended runs stay deterministic; pass --curr-date to pin it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from . import model, reports
from .graphalgo import CentralityMetric, centrality, fit_power_law
from .hopgraph import ExportFormat, GraphLevel, build_graph, export_graph, has_moves, require_nodes
from .hops import extract_all_hops
from .ingest import filter_active, ingest_profiles
from .metrics import (
    CohortAxis,
    CorpusIndex,
    external_hop_fraction,
    job_level,
    level_gains,
    promotion_by_stay,
    promotion_summary,
)
from .model import (
    NO_DATE,
    AnalysisConfig,
    DateMonth,
    ProfileTable,
    StintTable,
    UserProfile,
)
from .synthgen import GeneratorSpec, generate

_AXIS_NAMES = {axis.value: axis for axis in CohortAxis}
_PAGERANK_WARNING = "warning: pagerank hit max iterations before converging"
_METRICS = {m.value: m for m in CentralityMetric}
_LEVELS = [level.value for level in GraphLevel]


def infer_curr_date(profiles: Iterable[UserProfile]) -> DateMonth:
    """Latest date appearing anywhere in the corpus: a max over its columns."""
    table = ProfileTable.of(profiles)
    latest = max(int(c.max(initial=NO_DATE)) for c in (table.grad, table.start, table.end))
    if latest == NO_DATE:
        raise ValueError("empty corpus: pass --curr-date to set the analysis date")
    return table.month(latest)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="profile corpus (JSONL)")
    common.add_argument("--curr-date", metavar="YYYY-MM", default=None,
                        help="analysis reference month (default: latest date in corpus)")
    defaults = model.AnalysisConfig  # the class in model, whatever this module binds
    common.add_argument("--min-support", type=int, default=defaults.min_support)
    common.add_argument("--cohort-min-support", type=int, default=defaults.cohort_min_support)
    common.add_argument("--teleport", type=float, default=defaults.teleport_prob)
    common.add_argument("--bin-years", type=int, default=defaults.group_bin_width_years)
    return common


def _load(args) -> tuple[StintTable, AnalysisConfig]:
    """The active profiles' stint table at the run's date and the run's config,
    the notes on its dropped stints printed; no active profile raises ValueError."""
    profiles, report = ingest_profiles(args.input)
    active = filter_active(profiles)
    if not len(active):
        raise ValueError(
            f"no active profiles in {args.input}: {report.total_records} records, "
            f"{report.rejected_records} rejected, {report.inactive_records} inactive"
        )
    curr = DateMonth.parse(args.curr_date) if args.curr_date else infer_curr_date(profiles)
    config = AnalysisConfig(
        curr_date=curr,
        min_support=args.min_support,
        cohort_min_support=args.cohort_min_support,
        teleport_prob=args.teleport,
        group_bin_width_years=args.bin_years,
    )
    del profiles  # only the active profiles' stints are read
    stints = StintTable.of(active, curr)
    drops = stints.drops
    if drops.future_jobs or drops.invalid_period_jobs:
        print(f"skipped {drops.future_jobs} jobs starting after {curr} and "
              f"{drops.invalid_period_jobs} jobs with start > end", file=sys.stderr)
    if drops.negative_experience_jobs:
        print(f"{drops.negative_experience_jobs} usable jobs ended before graduation; "
              "they have no work experience", file=sys.stderr)
    return stints, config


def _cmd_ingest(args) -> int:
    _profiles, report = ingest_profiles(args.input)
    print(f"total_records: {report.total_records}")
    print(f"active_records: {report.active_records}")
    print(f"inactive_records: {report.inactive_records}")
    print(f"rejected_records: {report.rejected_records}")
    for reason in sorted(report.rejection_reasons):
        print(f"rejected[{reason}]: {report.rejection_reasons[reason]}")
    print(f"industry_repairs: {report.industry_repairs}")
    return 0


def _cmd_hops(args) -> int:
    stints, config = _load(args)
    hops, _ = extract_all_hops(stints, config)
    rows = [
        [h.user_id, h.source.title, h.source.organization, h.source.industry,
         h.dest.title, h.dest.organization, h.dest.industry,
         h.kind.value, h.duration_of_stay_months]
        for h in hops
    ]
    reports.write_rows(
        Path(args.out),
        ["user_id", "src_title", "src_org", "src_industry",
         "dst_title", "dst_org", "dst_industry", "kind", "stay_months"],
        rows,
    )
    print(args.out)
    return 0


def _cmd_metrics_cohorts(args) -> int:
    axes = []
    for name in args.axes.split(","):
        name = name.strip()
        if name not in _AXIS_NAMES:
            raise ValueError(f"unknown cohort axis {name!r}; choose from {sorted(_AXIS_NAMES)}")
        axes.append(_AXIS_NAMES[name])
    if not 1 <= len(axes) <= 2:
        raise ValueError("pass one or two cohort axes")
    stints, config = _load(args)
    hops, _ = extract_all_hops(stints, config)
    index = CorpusIndex.build(stints, config)
    stats = external_hop_fraction(hops, axes, index, stints.source)
    name = "_x_".join(a.value for a in axes)
    reports.write_rows(
        Path(args.out), reports.COHORT_HEADER, reports.cohort_rows(name, stats)
    )
    print(args.out)
    return 0


def _cmd_metrics_levels(args) -> int:
    stints, config = _load(args)
    index = CorpusIndex.build(stints, config)
    rows = []
    for key in sorted(index.wk_exp_by_orgjob):
        level = job_level(key, index)
        if level is None:
            continue
        rows.append(
            [key.title, key.organization, index.support_by_orgjob[key], level]
        )
    reports.write_rows(
        Path(args.out), ["title", "organization", "support", "level_months"], rows
    )
    print(args.out)
    return 0


def _records(stints, config):
    hops, _ = extract_all_hops(stints, config)
    return level_gains(hops, CorpusIndex.build(stints, config))


def _cmd_metrics_promotions(args) -> int:
    stints, config = _load(args)
    summary = promotion_summary(_records(stints, config))
    reports.write_promotion_table(summary, Path(args.out))
    print(args.out)
    return 0


def _cmd_metrics_stay(args) -> int:
    stints, config = _load(args)
    bins = promotion_by_stay(_records(stints, config), args.stay_bin_months, config)
    reports.write_stay_analysis(bins, Path(args.out))
    print(args.out)
    return 0


def _build_level_graph(args, stints, config):
    """The pruned graph at args.level; ValueError if it has no moves or no node."""
    hops, _ = extract_all_hops(stints, config)
    level = GraphLevel(args.level)
    if not has_moves(hops, level):
        moves = "external hop" if level is GraphLevel.ORG else "hop"
        raise ValueError(f"{level.value} graph has no moves: no {moves} in {args.input}")
    return require_nodes(build_graph(
        hops,
        level,
        config,
        profiles=stints,
        distinct_users=getattr(args, "distinct_users", False),
    ))


def _cmd_graph_build(args) -> int:
    stints, config = _load(args)
    graph = _build_level_graph(args, stints, config)
    export_graph(graph, ExportFormat(args.format), args.out)
    print(args.out)
    return 0


def _cmd_graph_analyze(args) -> int:
    stints, config = _load(args)
    graph = _build_level_graph(args, stints, config)
    table = centrality(graph, _METRICS[args.metric], config)
    reports.write_top_k([table], GraphLevel(args.level), Path(args.out), args.top)
    if args.ccdf:
        reports.write_ccdfs([table], Path(args.ccdf))
    if not table.converged:
        print(_PAGERANK_WARNING, file=sys.stderr)
    print(args.out)
    return 0


def _emit_row(out: str | None, header: list[str], row: list) -> None:
    """Write one row under header to the CSV out and print its path, or
    print the row as name: value lines when out is None."""
    if out:
        reports.write_rows(Path(out), header, [row])
        print(out)
    else:
        for name, value in zip(header, row):
            print(f"{name}: {reports.fmt(value)}")


def _cmd_graph_components(args) -> int:
    stints, config = _load(args)
    graph = _build_level_graph(args, stints, config)
    _emit_row(args.out, reports.GRAPH_STATS_HEADER, reports.graph_stats_row(args.level, graph))
    return 0


def _cmd_graph_powerlaw(args) -> int:
    stints, config = _load(args)
    graph = _build_level_graph(args, stints, config)
    table = centrality(graph, _METRICS[args.metric], config)
    if args.metric == "pagerank":
        # Discrete fitting needs positive integers; use per-node rank mass
        # in parts per million.
        values = [max(1, round(s * 1e6)) for s in table.scores.values()]
    else:
        values = [int(s) for s in table.scores.values() if s >= 1]
    fit = fit_power_law(values)
    row = [args.level, args.metric, fit.alpha, fit.xmin, fit.ks_statistic, fit.n_tail]
    _emit_row(args.out, ["graph", "metric", "alpha", "xmin", "ks_statistic", "n_tail"], row)
    return 0


def _cmd_synth(args) -> int:
    spec = GeneratorSpec.from_json(args.spec) if args.spec else GeneratorSpec()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.n_users is not None:
        overrides["n_users"] = args.n_users
    if overrides:
        spec = replace(spec, **overrides)
    result = generate(spec, args.out, args.truth)
    print(f"users: {result.n_users} active: {result.n_active} hops: {result.n_hops}")
    print(result.corpus_path)
    print(result.truth_path)
    return 0


def _cmd_report_all(args) -> int:
    out_dir = args.out_dir or os.environ.get("TALENTFLOW_OUT_DIR")
    if not out_dir:
        raise ValueError("pass --out-dir or set TALENTFLOW_OUT_DIR")
    stints, config = _load(args)
    unconverged: list[GraphLevel] = []
    written = reports.write_all_reports(stints, config, out_dir, unconverged)
    for level in unconverged:
        print(f"{_PAGERANK_WARNING} ({level.value} graph)", file=sys.stderr)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talentflow",
        description="Job-hop analytics over professional-profile corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser("ingest", parents=[common], help="validate a corpus and print counts")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("hops", parents=[common], help="extract hops to CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hops)

    metrics_parser = sub.add_parser("metrics", help="cohort/level/promotion metrics")
    msub = metrics_parser.add_subparsers(dest="metrics_command", required=True)

    p = msub.add_parser("cohorts", parents=[common])
    p.add_argument("--out", required=True)
    p.add_argument("--axes", default="work_exp,job_age",
                   help="comma-separated: work_exp, job_age, skill_count")
    p.set_defaults(func=_cmd_metrics_cohorts)

    p = msub.add_parser("levels", parents=[common])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics_levels)

    p = msub.add_parser("promotions", parents=[common])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics_promotions)

    p = msub.add_parser("stay", parents=[common])
    p.add_argument("--out", required=True)
    p.add_argument("--stay-bin-months", type=int, default=reports.STAY_BIN_MONTHS)
    p.set_defaults(func=_cmd_metrics_stay)

    graph_parser = sub.add_parser("graph", help="build and analyze talent-flow graphs")
    gsub = graph_parser.add_subparsers(dest="graph_command", required=True)

    p = gsub.add_parser("build", parents=[common])
    p.add_argument("--level", choices=_LEVELS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=[f.value for f in ExportFormat],
                   default=ExportFormat.CSV_EDGELIST.value)
    p.add_argument("--distinct-users", action="store_true",
                   help="weight edges by distinct movers instead of hop events")
    p.set_defaults(func=_cmd_graph_build)

    p = gsub.add_parser("analyze", parents=[common])
    p.add_argument("--level", choices=_LEVELS, required=True)
    p.add_argument("--metric", choices=sorted(_METRICS), required=True)
    p.add_argument("--top", type=int, default=reports.TOP_K)
    p.add_argument("--out", required=True)
    p.add_argument("--ccdf", default=None, help="also write the CCDF to this path")
    p.set_defaults(func=_cmd_graph_analyze)

    p = gsub.add_parser("components", parents=[common])
    p.add_argument("--level", choices=_LEVELS, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_graph_components)

    p = gsub.add_parser("powerlaw", parents=[common])
    p.add_argument("--level", choices=_LEVELS, required=True)
    p.add_argument("--metric", choices=sorted(_METRICS), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_graph_powerlaw)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--spec", default=None, help="generator spec JSON (defaults built in)")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-users", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report-all", parents=[common], help="run the whole pipeline")
    p.add_argument("--out-dir", default=None,
                   help="output directory (or TALENTFLOW_OUT_DIR)")
    p.set_defaults(func=_cmd_report_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, module error name first
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
