"""Weighted directed talent-flow graphs.

Two levels: the job graph has one node per (title, industry) pair and the
organization graph one node per organization. Edge weights count movers.
At the job level every hop contributes (an internal title change is still a
job-to-job flow), and an external move into the same (title, industry) is a
self-loop; self-loop mass is reported separately so analyses can exclude
it. At the organization level only external hops contribute, so there are
no self-loops.

Node support is the number of distinct user profiles with a usable stint
(see usable_stints) in the node's job or organization -- a property of the
corpus, not of the graph -- so pruning under-support nodes is a single
pass: removing a neighbor can never invalidate a surviving node. Edge
weights and support are counted from the integer columns of the hop and
stint tables (see HopTable, StintTable).

A HopGraph is frozen and holds one integer index (GraphIndex): the node
keys in sorted order, and the edges as integer source and target node ids
with their weights, in (source, target) order. build_graph makes that index
from packed integer keys, never from key tuples: the stint table numbers
node keys in sorted order, so it counts edge weights with one sort of
source_id * n + target_id (distinct movers: with one more sort of
pair_rank * n_users + user code, where pair_rank ranks the distinct pairs),
prunes, and renumbers the surviving ids with a cumulative sum, so the
edges come out already in index order. It hands HopGraph the index's
nodes and an EdgeMap over the index as the edges, and the graph takes its
index from that map. GraphIndex.edges, the key tuples, and the EdgeMap's
dict are made on their first read and kept; the edge map's length is the
index's edge count, so building, analysing and exporting a graph makes no
per-edge key object. A graph given key dicts (HopGraph(level, nodes,
support, edges), import_graph_csv) is indexed by GraphIndex.of, which maps
the keys to ids and hands them to the same array constructor,
GraphIndex.of_ids.

Every analytic in graphalgo and every export reads the index, so none sorts
or re-keys the graph again. Exports render and quote each node label once,
in a list by node id, and write each edge from its ids and weight.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
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
    read_only,
    run_starts,
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
    in (src, dst) order, which is the sorted order of their keys. The
    arrays are read-only. edges, the key of each edge in that order, is
    built on its first read and kept.
    """

    nodes: tuple[NodeKey, ...]
    src: np.ndarray  # intp, numpy's index type: PageRank indexes with it each iteration
    dst: np.ndarray  # intp
    weight: np.ndarray  # int64
    _edges: tuple[tuple[NodeKey, NodeKey], ...] | None = field(default=None, init=False, repr=False)

    @classmethod
    def of(
        cls, nodes: Iterable[NodeKey], edges: Mapping[tuple[NodeKey, NodeKey], int]
    ) -> "GraphIndex":
        """The index of a node set and an edge map keyed by node pairs."""
        order = tuple(sorted(nodes))
        ids = dict(zip(order, range(len(order))))
        try:
            src = np.fromiter(map(ids.__getitem__, map(itemgetter(0), edges)), np.intp, len(edges))
            dst = np.fromiter(map(ids.__getitem__, map(itemgetter(1), edges)), np.intp, len(edges))
        except KeyError as exc:
            raise ValueError(f"edge endpoint is not a node: {exc.args[0]!r}") from None
        return cls.of_ids(order, src, dst, np.fromiter(edges.values(), np.int64, len(edges)))

    @classmethod
    def of_ids(
        cls, nodes: tuple[NodeKey, ...], src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> "GraphIndex":
        """The index of distinct edges given as ids into nodes, keys in sorted order.

        The edges are put in (src, dst) order here; edges already in that
        order, as build_graph makes them, keep it.
        """
        perm = np.argsort(src * len(nodes) + dst, kind="stable")
        src = src[perm].astype(np.intp, copy=False)
        dst = dst[perm].astype(np.intp, copy=False)
        weight = weight[perm].astype(np.int64, copy=False)
        read_only(src, dst, weight)
        return cls(nodes, src, dst, weight)

    @property
    def edges(self) -> tuple[tuple[NodeKey, NodeKey], ...]:
        """Edge i's key (nodes[src[i]], nodes[dst[i]]) at position i."""
        if self._edges is None:
            object.__setattr__(self, "_edges", self._edge_keys())
        return self._edges

    def _edge_keys(self) -> tuple[tuple[NodeKey, NodeKey], ...]:
        key = self.nodes.__getitem__
        return tuple(zip(map(key, self.src.tolist()), map(key, self.dst.tolist())))


class EdgeMap(Mapping):
    """A built graph's edge map, {(u, v): weight} in index order.

    Its length is the index's edge count; any other read builds the key
    tuples (GraphIndex.edges) and the dict of them once, then reads that.
    As a Mapping it compares equal to any mapping with the same items.
    """

    __slots__ = ("index", "_map")

    def __init__(self, index: GraphIndex) -> None:
        self.index = index
        self._map: dict[tuple[NodeKey, NodeKey], int] | None = None

    def _dict(self) -> dict[tuple[NodeKey, NodeKey], int]:
        if self._map is None:
            self._map = self._build()
        return self._map

    def _build(self) -> dict[tuple[NodeKey, NodeKey], int]:
        return dict(zip(self.index.edges, self.index.weight.tolist()))

    def __len__(self) -> int:
        return len(self.index.weight)

    def __getitem__(self, edge: tuple[NodeKey, NodeKey]) -> int:
        return self._dict()[edge]

    def __iter__(self) -> Iterator[tuple[NodeKey, NodeKey]]:
        return iter(self._dict())

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass(frozen=True)
class HopGraph:
    """A built graph, frozen, with its integer index (see GraphIndex).

    The node set is stored as a frozenset. Edges given as an EdgeMap
    whose index has exactly these nodes, as build_graph gives them, lend
    the graph that index; any other edges, or other nodes, are indexed by
    GraphIndex.of. So a dataclasses.replace copy with other nodes or edges
    never keeps a stale index. An EdgeMap's keys are built on their first
    read. node_support and edges must not be mutated, because every
    analytic and export reads the index. An edge whose endpoint is not a
    node raises ValueError.
    """

    level: GraphLevel
    nodes: frozenset[NodeKey]
    node_support: dict[NodeKey, int]
    edges: Mapping[tuple[NodeKey, NodeKey], int]
    index: GraphIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = frozenset(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        index = self.edges.index if isinstance(self.edges, EdgeMap) else None
        if index is None or len(index.nodes) != len(nodes) or not nodes.issuperset(index.nodes):
            index = GraphIndex.of(nodes, self.edges)
        object.__setattr__(self, "index", index)

    @property
    def self_loop_mass(self) -> int:
        idx = self.index
        return int(idx.weight[idx.src == idx.dst].sum())

    @property
    def total_edge_weight(self) -> int:
        return int(self.index.weight.sum())

    def sparsity(self) -> float:
        """|E| / |V|^2, the filled fraction of the adjacency matrix."""
        n = len(self.nodes)
        return len(self.edges) / (n * n) if n else 0.0

    def sorted_nodes(self) -> list[NodeKey]:
        return list(self.index.nodes)

    def sorted_edges(self) -> list[tuple[tuple[NodeKey, NodeKey], int]]:
        return list(zip(self.index.edges, self.index.weight.tolist()))


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
    HopTable or Hop objects, and profiles a ProfileTable, UserProfile
    objects or a StintTable. When profiles is the table the hops were
    extracted from, at the same date, support reads the hops' own stints.
    """
    table = HopTable.of(hops)
    stints = table.stints
    src, dst = table.src, table.dst
    if level is GraphLevel.ORG:
        src, dst = src[table.external], dst[table.external]
    node, keys = _node_column(stints, level)
    who = stints.user_code[stints.user[src]]
    if profiles is None:
        ends = np.concatenate([node[src], node[dst]])
        support = distinct_counts(ends, np.concatenate([who, who]), len(keys))
    else:
        support = _holder_support(stints, level, config.curr_date, profiles, keys)

    # Node ids are the keys' positions in sorted order, so packed (u, v)
    # keys sort into the index's edge order.
    n = len(keys)
    pairs = node[src] * n + node[dst]
    ordered = np.sort(pairs)
    first = run_starts(ordered)
    edge = ordered[first]
    if distinct_users:
        weight = distinct_counts(np.searchsorted(edge, pairs), who, len(edge))
    else:
        weight = np.diff(np.append(first, len(pairs)))
    u, v = np.divmod(edge, n)

    kept = np.zeros(n, bool)
    kept[u] = True
    kept[v] = True
    kept &= support >= config.min_support
    live = kept[u] & kept[v]
    ids = np.cumsum(kept) - 1  # monotone, so the edges stay in (src, dst) order
    nodes = tuple(map(keys.__getitem__, np.flatnonzero(kept).tolist()))
    index = GraphIndex.of_ids(nodes, ids[u[live]], ids[v[live]], weight[live])
    return HopGraph(level, nodes, dict(zip(nodes, support[kept].tolist())), EdgeMap(index))


def has_moves(hops: HopTable, level: GraphLevel) -> bool:
    """Whether the level's graph has a move before pruning: any hop for the
    job graph, an external hop for the org graph."""
    return bool(hops.external.any() if level is GraphLevel.ORG else len(hops))


def require_nodes(graph: HopGraph) -> HopGraph:
    """graph itself; a graph with no node, as pruning can leave, raises ValueError."""
    if not graph.nodes:
        raise ValueError(f"{graph.level.value} graph is empty after pruning; lower --min-support")
    return graph


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

    Hops extracted from this very profile table at this date already hold
    its stint table, so no profile is read again.
    """
    if profiles is stints.source and stints.curr_date == curr_date:
        profiles = stints
    holders = StintTable.of(profiles, curr_date)
    node, holder_keys = _node_column(holders, level)
    counts = distinct_counts(node, holders.user_code[holders.user], len(holder_keys))
    if holders is stints:
        return counts
    by_key = dict(zip(holder_keys, counts.tolist()))
    return np.fromiter((by_key.get(k, 0) for k in keys), np.int64, len(keys))


def _labels(graph: HopGraph, quote: Callable[[str], str]) -> list[str]:
    """Each node id's export label, rendered and quoted once."""
    return [quote(node_to_str(n)) for n in graph.index.nodes]


def _id_edges(graph: HopGraph) -> Iterator[tuple[int, int, int]]:
    """(src id, dst id, weight) per edge, in index order."""
    idx = graph.index
    return zip(idx.src.tolist(), idx.dst.tolist(), idx.weight.tolist())


def _csv_quote(text: str) -> str:
    """text as one csv field, quoted as csv.writer quotes it.

    A field holding a comma, a quote or a line break is quoted, its quotes
    doubled. With a newline line terminator, csv.writer leaves a field
    whose only line break is a carriage return unquoted (Python 3.11 does),
    and csv.reader then splits the row there; such a field is quoted here,
    so that every label reads back.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(graph: HopGraph, path: Path) -> None:
    label = _labels(graph, _csv_quote)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("src,dst,weight\n")
        fh.writelines(f"{label[u]},{label[v]},{w}\n" for u, v, w in _id_edges(graph))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(graph: HopGraph, path: Path) -> None:
    label = _labels(graph, _dot_quote)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("digraph talentflow {\n")
        fh.writelines(f"  {text};\n" for text in label)
        fh.writelines(f"  {label[u]} -> {label[v]} [weight={w}];\n" for u, v, w in _id_edges(graph))
        fh.write("}\n")


def _write_graphml(graph: HopGraph, path: Path) -> None:
    label = _labels(graph, quoteattr)
    support = map(graph.node_support.get, graph.index.nodes, repeat(0))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
            '  <key id="support" for="node" attr.name="support" attr.type="int"/>\n'
            '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n'
            '  <graph edgedefault="directed">\n'
        )
        fh.writelines(
            f'    <node id={text}><data key="support">{n}</data></node>\n'
            for text, n in zip(label, support)
        )
        fh.writelines(
            f"    <edge source={label[u]} target={label[v]}>"
            f'<data key="weight">{w}</data></edge>\n'
            for u, v, w in _id_edges(graph)
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
