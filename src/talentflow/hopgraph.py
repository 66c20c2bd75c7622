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
pass: removing a neighbor can never invalidate a surviving node. Edge
weights and support are counted from the integer columns of the hop and
stint tables (see HopTable, StintTable).

A HopGraph is frozen. It computes one integer index (GraphIndex) when it
is constructed: the node keys in sorted order, and the edges as integer
source and target node ids with their weights, in (source, target) order.
Every analytic in graphalgo and every export reads that index, so none
sorts or re-keys the graph again; exports render each node label once.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator
from xml.sax.saxutils import quoteattr

import numpy as np

from .hops import Hop, HopTable
from .model import (
    AnalysisConfig,
    DateMonth,
    JobKey,
    StintTable,
    UserProfile,
    distinct_counts,
    groups,
)

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
    """Render a node for exports: 'title | industry' at job level.

    Raises ValueError for a job node that node_from_str could not read
    back, one whose industry contains ' | ' (or starts with '| ').
    """
    if isinstance(node, JobKey):
        text = f"{node.title}{_JOB_NODE_SEP}{node.industry}"
        if text.rpartition(_JOB_NODE_SEP)[2] != node.industry:
            raise ValueError(
                f"job node label {text!r} does not read back: its industry "
                f"{node.industry!r} runs into the separator {_JOB_NODE_SEP!r}"
            )
        return text
    return node


def node_from_str(text: str, level: GraphLevel) -> NodeKey:
    """Inverse of node_to_str. Industries must not contain ' | '."""
    if level is GraphLevel.ORG:
        return text
    title, sep, industry = text.rpartition(_JOB_NODE_SEP)
    if not sep:
        raise ValueError(f"not a job node label: {text!r}")
    return JobKey(title, industry)


@dataclass(frozen=True, eq=False, slots=True)
class GraphIndex:
    """A graph as integers, computed once when the graph is built.

    Node ids are positions in nodes, the node keys in sorted order. Edge i
    runs from node src[i] to node dst[i] with weight weight[i]; edges are
    in (src, dst) order, which is the sorted order of their keys, and
    edges[i] is the key of edge i. The arrays are read-only.
    """

    nodes: tuple[NodeKey, ...]
    edges: tuple[tuple[NodeKey, NodeKey], ...]
    src: np.ndarray  # intp, numpy's index type: PageRank indexes with it each iteration
    dst: np.ndarray  # intp
    weight: np.ndarray  # int64

    @classmethod
    def of(
        cls, nodes: Iterable[NodeKey], edges: dict[tuple[NodeKey, NodeKey], int]
    ) -> "GraphIndex":
        order = tuple(sorted(nodes))
        ids = dict(zip(order, range(len(order))))
        keys = list(edges)
        try:
            src = np.fromiter(map(ids.__getitem__, map(itemgetter(0), keys)), np.intp, len(keys))
            dst = np.fromiter(map(ids.__getitem__, map(itemgetter(1), keys)), np.intp, len(keys))
        except KeyError as exc:
            raise ValueError(f"edge endpoint is not a node: {exc.args[0]!r}") from None
        weight = np.fromiter(edges.values(), np.int64, len(keys))
        perm = np.argsort(src * len(order) + dst)
        arrays = src[perm], dst[perm], weight[perm]
        for a in arrays:
            a.flags.writeable = False
        return cls(order, tuple(map(keys.__getitem__, perm.tolist())), *arrays)


@dataclass(frozen=True)
class HopGraph:
    """A built graph, frozen, with its integer index (see GraphIndex).

    The node set is stored as a frozenset; node_support and edges must not
    be mutated, because every analytic and export reads the index computed
    from them at construction. An edge whose endpoint is not a node raises
    ValueError.
    """

    level: GraphLevel
    nodes: frozenset[NodeKey]
    node_support: dict[NodeKey, int]
    edges: dict[tuple[NodeKey, NodeKey], int]
    index: GraphIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "index", GraphIndex.of(self.nodes, self.edges))

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
        return list(self.index.nodes)

    def sorted_edges(self) -> list[tuple[tuple[NodeKey, NodeKey], int]]:
        return list(_weighted_edges(self))


def _weighted_edges(graph: HopGraph) -> Iterator[tuple[tuple[NodeKey, NodeKey], int]]:
    """(edge, weight) pairs in index order, without building a list."""
    return zip(graph.index.edges, map(graph.edges.__getitem__, graph.index.edges))


def build_graph(
    hops: Iterable[Hop],
    level: GraphLevel,
    config: AnalysisConfig,
    profiles: Iterable[UserProfile] | StintTable | None = None,
    distinct_users: bool = False,
) -> HopGraph:
    """Build and prune one talent-flow graph.

    Edge weights count hop events by default; with distinct_users=True each
    user contributes at most 1 per edge. Support is counted from profiles
    when given (distinct holders of a usable stint at the node's
    job/organization); without profiles it falls back to distinct users seen
    at the node across the hops. Nodes under min_support are removed, then
    edges with a missing endpoint -- one pass, no cascade. hops may be a
    HopTable or Hop objects, and profiles the profiles or their StintTable.
    """
    table = HopTable.of(hops)
    stints = table.stints
    src, dst = table.src, table.dst
    if level is GraphLevel.ORG:
        src, dst = src[table.external], dst[table.external]
    node, keys = _node_column(stints, level)
    u, v = node[src], node[dst]
    who = stints.user_code[stints.user[src]]
    if profiles is None:
        support = distinct_counts(np.concatenate([u, v]), np.concatenate([who, who]), len(keys))
    else:
        support = _holder_support(stints, level, config.curr_date, profiles, keys)
    if distinct_users:
        order, first, _ = groups(u, v, who)
        moves = order[first]
        order, first, weight = groups(u[moves], v[moves])
        edge = moves[order[first]]
    else:
        order, first, weight = groups(u, v)
        edge = order[first]
    u, v = u[edge], v[edge]

    kept = np.zeros(len(keys), bool)
    kept[u] = True
    kept[v] = True
    kept &= support >= config.min_support
    live = kept[u] & kept[v]
    node_support = dict(
        zip(map(keys.__getitem__, np.flatnonzero(kept).tolist()), support[kept].tolist())
    )
    return HopGraph(
        level=level,
        nodes=frozenset(node_support),
        node_support=node_support,
        edges={
            (keys[a], keys[b]): w
            for a, b, w in zip(u[live].tolist(), v[live].tolist(), weight[live].tolist())
        },
    )


def _node_column(stints: StintTable, level: GraphLevel) -> tuple[np.ndarray, tuple]:
    """Each stint's node id at the level, and the node key of each id."""
    if level is GraphLevel.ORG:
        return stints.org, stints.orgs
    return stints.job_key, stints.job_keys


def _holder_support(
    stints: StintTable,
    level: GraphLevel,
    curr_date: DateMonth,
    profiles: Iterable[UserProfile] | StintTable,
    keys: tuple[NodeKey, ...],
) -> np.ndarray:
    """Distinct holders of a usable stint per node id of the hops' stints.

    Hops extracted from these very profile objects at this date already
    hold their stint table, so no profile is read again.
    """
    if not isinstance(profiles, StintTable):
        profiles = tuple(profiles)
        if (
            stints.curr_date == curr_date
            and len(profiles) == len(stints.profiles)
            and all(map(operator.is_, profiles, stints.profiles))
        ):
            profiles = stints
    holders = StintTable.of(profiles, curr_date)
    node, holder_keys = _node_column(holders, level)
    counts = distinct_counts(node, holders.user_code[holders.user], len(holder_keys))
    if holders is stints:
        return counts
    by_key = dict(zip(holder_keys, counts.tolist()))
    return np.fromiter((by_key.get(k, 0) for k in keys), np.int64, len(keys))


def _labels(graph: HopGraph, quote: Callable[[str], str]) -> dict[NodeKey, str]:
    """Each node's export label, rendered and quoted once."""
    return {n: quote(node_to_str(n)) for n in graph.index.nodes}


def _write_csv(graph: HopGraph, path: Path) -> None:
    label = _labels(graph, str)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "weight"])
        writer.writerows([label[u], label[v], w] for (u, v), w in _weighted_edges(graph))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(graph: HopGraph, path: Path) -> None:
    label = _labels(graph, _dot_quote)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("digraph talentflow {\n")
        fh.writelines(f"  {label[n]};\n" for n in graph.index.nodes)
        fh.writelines(
            f"  {label[u]} -> {label[v]} [weight={w}];\n" for (u, v), w in _weighted_edges(graph)
        )
        fh.write("}\n")


def _write_graphml(graph: HopGraph, path: Path) -> None:
    label = _labels(graph, quoteattr)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
            '  <key id="support" for="node" attr.name="support" attr.type="int"/>\n'
            '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n'
            '  <graph edgedefault="directed">\n'
        )
        fh.writelines(
            f"    <node id={label[n]}>"
            f'<data key="support">{graph.node_support.get(n, 0)}</data></node>\n'
            for n in graph.index.nodes
        )
        fh.writelines(
            f"    <edge source={label[u]} target={label[v]}>"
            f'<data key="weight">{w}</data></edge>\n'
            for (u, v), w in _weighted_edges(graph)
        )
        fh.write("  </graph>\n</graphml>\n")


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
    set of edge endpoints. A repeated (src, dst) row or a weight below 1
    raises ValueError: export_graph writes neither.
    """
    edges: dict[tuple[NodeKey, NodeKey], int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["src", "dst", "weight"]:
            raise ValueError(f"unexpected edge list header: {header!r}")
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"bad edge row: {row!r}")
            edge = (node_from_str(row[0], level), node_from_str(row[1], level))
            weight = int(row[2])
            if weight < 1:
                raise ValueError(f"edge weight must be positive: {row!r}")
            if edge in edges:
                raise ValueError(f"repeated edge: {row!r}")
            edges[edge] = weight
    nodes = set(chain.from_iterable(edges))
    return HopGraph(level=level, nodes=nodes, node_support={}, edges=edges)
