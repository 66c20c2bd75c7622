"""Weighted directed talent-flow graphs.

Two levels: the job graph has one node per (title, industry) pair and the
organization graph one node per organization. Edge weights count movers.
At the job level every hop contributes (an internal title change is still a
job-to-job flow), and an external move into the same (title, industry) is a
self-loop; self-loop mass is reported separately so analyses can exclude
it. At the organization level only external hops contribute, so there are
no self-loops.

Node support is the number of distinct user profiles with a usable stint
(see usable_jobs) in the node's job or organization -- a property of the
corpus, not of the graph -- so pruning under-support nodes is a single
pass: removing a neighbor can never invalidate a surviving node.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable
from xml.sax.saxutils import quoteattr

from .hops import Hop, HopKind
from .model import AnalysisConfig, JobKey, UserProfile, usable_jobs

NodeKey = JobKey | str

_JOB_NODE_SEP = " | "


class GraphLevel(str, Enum):
    JOB = "job"
    ORG = "org"


class ExportFormat(str, Enum):
    CSV_EDGELIST = "csv"
    DOT = "dot"
    GRAPHML = "graphml"


def node_to_str(node: NodeKey) -> str:
    """Render a node for exports: 'title | industry' at job level."""
    if isinstance(node, JobKey):
        return f"{node.title}{_JOB_NODE_SEP}{node.industry}"
    return node


def node_from_str(text: str, level: GraphLevel) -> NodeKey:
    """Inverse of node_to_str. Industries must not contain ' | '."""
    if level is GraphLevel.ORG:
        return text
    title, sep, industry = text.rpartition(_JOB_NODE_SEP)
    if not sep:
        raise ValueError(f"not a job node label: {text!r}")
    return JobKey(title, industry)


@dataclass
class HopGraph:
    """A built graph: immutable by convention once constructed."""

    level: GraphLevel
    nodes: set[NodeKey]
    node_support: dict[NodeKey, int]
    edges: dict[tuple[NodeKey, NodeKey], int]

    @property
    def self_loop_mass(self) -> int:
        return sum(w for (u, v), w in self.edges.items() if u == v)

    @property
    def total_edge_weight(self) -> int:
        return sum(self.edges.values())

    def sparsity(self) -> float:
        """|E| / |V|^2, the filled fraction of the adjacency matrix."""
        n = len(self.nodes)
        return len(self.edges) / (n * n) if n else 0.0

    def sorted_nodes(self) -> list[NodeKey]:
        return sorted(self.nodes)

    def sorted_edges(self) -> list[tuple[tuple[NodeKey, NodeKey], int]]:
        return sorted(self.edges.items())


def _hop_endpoints(hop: Hop, level: GraphLevel) -> tuple[NodeKey, NodeKey] | None:
    if level is GraphLevel.ORG:
        if hop.kind is not HopKind.EXTERNAL:
            return None
        return hop.source.organization, hop.dest.organization
    return hop.source.key, hop.dest.key


def build_graph(
    hops: Iterable[Hop],
    level: GraphLevel,
    config: AnalysisConfig,
    profiles: Iterable[UserProfile] | None = None,
    distinct_users: bool = False,
) -> HopGraph:
    """Build and prune one talent-flow graph.

    Edge weights count hop events by default; with distinct_users=True each
    user contributes at most 1 per edge. Support is counted from profiles
    when given (distinct holders of a usable stint at the node's
    job/organization); without profiles it falls back to distinct users seen
    at the node across the hops. Nodes under min_support are removed, then
    edges with a missing endpoint -- one pass, no cascade.
    """
    weights: dict[tuple[NodeKey, NodeKey], int] = defaultdict(int)
    edge_users: dict[tuple[NodeKey, NodeKey], set[str]] = defaultdict(set)
    holders: dict[NodeKey, set[str]] = defaultdict(set)
    nodes: set[NodeKey] = set()

    for hop in hops:
        endpoints = _hop_endpoints(hop, level)
        if endpoints is None:
            continue
        u, v = endpoints
        nodes.add(u)
        nodes.add(v)
        if profiles is None:
            holders[u].add(hop.user_id)
            holders[v].add(hop.user_id)
        if distinct_users:
            edge_users[(u, v)].add(hop.user_id)
        else:
            weights[(u, v)] += 1
    if distinct_users:
        weights = {e: len(users) for e, users in edge_users.items()}

    if profiles is not None:
        for p in profiles:
            for j in usable_jobs(p, config.curr_date):
                key: NodeKey = j.organization if level is GraphLevel.ORG else j.key
                holders[key].add(p.user_id)
    support = {n: len(holders.get(n, ())) for n in nodes}

    kept = {n for n in nodes if support[n] >= config.min_support}
    return HopGraph(
        level=level,
        nodes=kept,
        node_support={n: support[n] for n in kept},
        edges={(u, v): w for (u, v), w in weights.items() if u in kept and v in kept},
    )


def _write_csv(graph: HopGraph, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "weight"])
        for (u, v), w in graph.sorted_edges():
            writer.writerow([node_to_str(u), node_to_str(v), w])


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(graph: HopGraph, path: Path) -> None:
    lines = ["digraph talentflow {"]
    for n in graph.sorted_nodes():
        lines.append(f"  {_dot_quote(node_to_str(n))};")
    for (u, v), w in graph.sorted_edges():
        lines.append(
            f"  {_dot_quote(node_to_str(u))} -> {_dot_quote(node_to_str(v))} [weight={w}];"
        )
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_graphml(graph: HopGraph, path: Path) -> None:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="support" for="node" attr.name="support" attr.type="int"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>',
        '  <graph edgedefault="directed">',
    ]
    for n in graph.sorted_nodes():
        label = node_to_str(n)
        support = graph.node_support.get(n, 0)
        lines.append(
            f"    <node id={quoteattr(label)}>"
            f'<data key="support">{support}</data></node>'
        )
    for (u, v), w in graph.sorted_edges():
        lines.append(
            f"    <edge source={quoteattr(node_to_str(u))} "
            f"target={quoteattr(node_to_str(v))}>"
            f'<data key="weight">{w}</data></edge>'
        )
    lines.extend(["  </graph>", "</graphml>"])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_graph(graph: HopGraph, fmt: ExportFormat, path: str | Path) -> Path:
    """Write the graph deterministically: nodes and edges in sorted order."""
    path = Path(path)
    if fmt is ExportFormat.CSV_EDGELIST:
        _write_csv(graph, path)
    elif fmt is ExportFormat.DOT:
        _write_dot(graph, path)
    else:
        _write_graphml(graph, path)
    return path


def import_graph_csv(path: str | Path, level: GraphLevel) -> HopGraph:
    """Rebuild a graph from a csv edge list written by export_graph.

    Node support is a corpus property and is not serialized in edge lists;
    imported graphs carry an empty support map, and their node set is the
    set of edge endpoints.
    """
    edges: dict[tuple[NodeKey, NodeKey], int] = {}
    nodes: set[NodeKey] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["src", "dst", "weight"]:
            raise ValueError(f"unexpected edge list header: {header!r}")
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"bad edge row: {row!r}")
            u = node_from_str(row[0], level)
            v = node_from_str(row[1], level)
            edges[(u, v)] = int(row[2])
            nodes.add(u)
            nodes.add(v)
    return HopGraph(level=level, nodes=nodes, node_support={}, edges=edges)
