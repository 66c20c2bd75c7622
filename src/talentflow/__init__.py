"""Talent-flow analytics: hops, cohort metrics, promotion labels, graphs."""

from .model import (
    AnalysisConfig,
    DateMonth,
    InvalidLabelError,
    JobKey,
    JobRecord,
    OrgJobKey,
    ProfileTable,
    StintDrops,
    StintTable,
    UserProfile,
    months_between,
    normalize_label,
)
from .ingest import IngestReport, filter_active, ingest_profiles
from .hops import Hop, HopKind, HopTable, classify_hop, extract_all_hops, extract_hops
from .metrics import (
    CohortAxis,
    CohortStats,
    CorpusIndex,
    LevelGainLabel,
    LevelGainRecord,
    LevelGainTable,
    external_hop_fraction,
    job_age,
    job_level,
    level_gain,
    promotion_by_stay,
    promotion_summary,
    work_experience,
    work_experience_of_jobkey,
)
from .hopgraph import ExportFormat, GraphLevel, HopGraph, build_graph, export_graph
from .graphalgo import (
    CentralityMetric,
    ComponentMode,
    ComponentReport,
    PowerLawFit,
    centrality,
    centrality_ccdf,
    connected_components,
    component_report,
    degree_centrality,
    fit_power_law,
    top_k,
    weighted_pagerank,
)
from .synthgen import GeneratorSpec, generate

__version__ = "0.1.0"
