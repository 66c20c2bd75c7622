"""The indexed graph analytics and exports against dict-based references.

The reference functions below are the key-typed implementations that the
integer index (hopgraph.GraphIndex) replaced: each builds its own view of
the graph from HopGraph.nodes and HopGraph.edges. The indexed versions
must agree with them exactly -- the same floats, rankings, iteration
counts, component lists and export bytes. frame_strongly_connected is the
frame-per-node Tarjan loop that the edge-cursor one replaced, over the same
CSR lists; both must return the same components in the same order.
"""

import csv
import io
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import count
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import talentflow
from talentflow import hopgraph, reports
from talentflow.graphalgo import (
    CentralityMetric,
    ComponentMode,
    Direction,
    _strongly_connected,
    centrality_ccdf,
    component_report,
    connected_components,
    degree_centrality,
    fit_power_law,
    top_k,
    weighted_pagerank,
)
from talentflow.hopgraph import (
    EdgeMap,
    ExportFormat,
    GraphIndex,
    GraphLevel,
    HopGraph,
    build_graph,
    export_graph,
    import_graph_csv,
    node_to_str,
)
from talentflow.hops import extract_all_hops
from talentflow.ingest import filter_active, ingest_profiles
from talentflow.model import JobKey
from talentflow.synthgen import GeneratorSpec, generate
from helpers import config, counting, random_profile

CFG = config("2016-06", min_support=1)
FEW_ITERATIONS = config("2016-06", min_support=1, pagerank_max_iter=3)


# --- reference implementations ---------------------------------------------

def reference_ranking(scores):
    return tuple(sorted(sorted(scores), key=scores.__getitem__, reverse=True))


def reference_degree(graph, direction):
    neighbors = {n: set() for n in graph.nodes}
    for u, v in graph.edges:
        if direction is Direction.IN:
            neighbors[v].add(u)
        else:
            neighbors[u].add(v)
    scores = {n: float(len(s)) for n, s in neighbors.items()}
    return scores, reference_ranking(scores)


def reference_pagerank(graph, cfg):
    nodes = sorted(graph.nodes)
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    edges = sorted(graph.edges.items())
    src = np.array([index[u] for (u, _), _ in edges], dtype=np.int64)
    dst = np.array([index[v] for (_, v), _ in edges], dtype=np.int64)
    w = np.array([weight for _, weight in edges], dtype=np.float64)
    out_weight = np.zeros(n)
    if len(edges):
        np.add.at(out_weight, src, w)
    dangling = out_weight == 0.0
    prob = w / out_weight[src] if len(edges) else w
    teleport = cfg.teleport_prob
    rank = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, cfg.pagerank_iteration_cap + 1):
        flow = np.bincount(dst, weights=prob * rank[src], minlength=n) if len(edges) else np.zeros(n)
        dangling_mass = rank[dangling].sum()
        new_rank = (1.0 - teleport) * (flow + dangling_mass / n) + teleport / n
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < cfg.pagerank_tol:
            converged = True
            break
    rank = rank / rank.sum()
    scores = {node: float(rank[i]) for node, i in index.items()}
    return scores, reference_ranking(scores), converged, iterations


def reference_adjacency(graph, mode):
    adj = {n: set() for n in graph.nodes}
    for u, v in graph.edges:
        adj[u].add(v)
        if mode is ComponentMode.WEAK:
            adj[v].add(u)
    return {n: sorted(s) for n, s in adj.items()}


def reference_strong(nodes, adj):
    order = count()
    index, lowlink, stack, on_stack, components = {}, {}, [], set(), []
    for root in nodes:
        if root in index:
            continue
        index[root] = lowlink[root] = next(order)
        stack.append(root)
        on_stack.add(root)
        frames = [(root, iter(adj[root]))]
        while frames:
            v, it = frames[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = next(order)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    frames.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[v] = min(lowlink[v], index[nxt])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    node = stack.pop()
                    on_stack.discard(node)
                    comp.append(node)
                    if node == v:
                        break
                components.append(comp)
    return components


def reference_weak(nodes, adj):
    seen, components = set(), []
    for root in nodes:
        if root in seen:
            continue
        comp, queue = [], [root]
        seen.add(root)
        while queue:
            v = queue.pop()
            comp.append(v)
            for nxt in adj[v]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        components.append(comp)
    return components


def reference_components(graph, mode):
    nodes = sorted(graph.nodes)
    find = reference_strong if mode is ComponentMode.STRONG else reference_weak
    comps = sorted(sorted(c) for c in find(nodes, reference_adjacency(graph, mode)))
    comps.sort(key=len, reverse=True)
    return comps


def frame_strongly_connected(start, nbrs):
    # Tarjan, iterative, one (node, neighbor iterator) frame per open node.
    n = len(start) - 1
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    order = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = order
        order += 1
        stack.append(root)
        on_stack[root] = True
        frames = [(root, iter(nbrs[start[root]:start[root + 1]]))]
        while frames:
            v, it = frames[-1]
            advanced = False
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = lowlink[nxt] = order
                    order += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    frames.append((nxt, iter(nbrs[start[nxt]:start[nxt + 1]])))
                    advanced = True
                    break
                if on_stack[nxt]:
                    lowlink[v] = min(lowlink[v], index[nxt])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    node = stack.pop()
                    on_stack[node] = False
                    comp.append(node)
                    if node == v:
                        break
                components.append(comp)
    return components


def reference_label(node):
    return f"{node.title} | {node.industry}" if isinstance(node, JobKey) else node


def reference_csv(graph, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "weight"])
        for (u, v), w in sorted(graph.edges.items()):
            writer.writerow([reference_label(u), reference_label(v), w])


def reference_dot_quote(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_dot(graph, path):
    lines = ["digraph talentflow {"]
    for n in sorted(graph.nodes):
        lines.append(f"  {reference_dot_quote(reference_label(n))};")
    for (u, v), w in sorted(graph.edges.items()):
        lines.append(
            f"  {reference_dot_quote(reference_label(u))} -> "
            f"{reference_dot_quote(reference_label(v))} [weight={w}];"
        )
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_graphml(graph, path):
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="support" for="node" attr.name="support" attr.type="int"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>',
        '  <graph edgedefault="directed">',
    ]
    for n in sorted(graph.nodes):
        lines.append(
            f"    <node id={quoteattr(reference_label(n))}>"
            f'<data key="support">{graph.node_support.get(n, 0)}</data></node>'
        )
    for (u, v), w in sorted(graph.edges.items()):
        lines.append(
            f"    <edge source={quoteattr(reference_label(u))} "
            f"target={quoteattr(reference_label(v))}>"
            f'<data key="weight">{w}</data></edge>'
        )
    lines.extend(["  </graph>", "</graphml>"])
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


REFERENCE_WRITERS = {
    ExportFormat.CSV_EDGELIST: reference_csv,
    ExportFormat.DOT: reference_dot,
    ExportFormat.GRAPHML: reference_graphml,
}


# --- graphs -----------------------------------------------------------------

ORG_LABELS = [
    "acme", "acme corp", "café münchen", "서울상사", 'the "quoted" co',
    "smith & sons", "a<b", "back\\slash", "zeta", "ångström", "b&q <uk>", "x",
]
TITLES = ["analyst", "analyst ii", "analyst iii", "ingénieur", 'lead "a"', "r&d <2>"]
INDUSTRIES = ["fin", "fin tech", "tech", "énergie", "a\\b"]


def random_graph(rng, level, p_edge=None):
    if level is GraphLevel.ORG:
        pool = list(ORG_LABELS)
    else:
        pool = [JobKey(t, i) for t in TITLES for i in INDUSTRIES]
    nodes = set(rng.sample(pool, rng.randint(1, len(pool))))
    ordered = sorted(nodes)
    p = rng.choice([0.0, 0.05, 0.2, 0.6]) if p_edge is None else p_edge
    edges = {
        (u, v): rng.randint(1, 50)
        for u in ordered for v in ordered
        if rng.random() < p  # includes self-loops; isolated nodes stay in
    }
    support = {n: rng.randint(0, 30) for n in ordered if rng.random() < 0.8}
    return HopGraph(level=level, nodes=nodes, node_support=support, edges=edges)


def assert_matches_references(graph, tmp_path, cfg=CFG):
    for direction in Direction:
        table = degree_centrality(graph, direction)
        assert (table.scores, table.ranking) == reference_degree(graph, direction)
    if graph.nodes:
        table = weighted_pagerank(graph, cfg)
        assert table.metric is CentralityMetric.PAGERANK
        assert (table.scores, table.ranking, table.converged, table.iterations) == (
            reference_pagerank(graph, cfg)
        )
    for mode in ComponentMode:
        assert connected_components(graph, mode) == reference_components(graph, mode)
    report = component_report(graph)
    sccs = reference_components(graph, ComponentMode.STRONG)
    wccs = reference_components(graph, ComponentMode.WEAK)
    assert (report.scc_count, report.wcc_count) == (len(sccs), len(wccs))
    assert report.largest_scc_size == (len(sccs[0]) if sccs else 0)
    assert report.second_wcc_size == (len(wccs[1]) if len(wccs) > 1 else 0)
    assert graph.sorted_nodes() == sorted(graph.nodes)
    assert graph.sorted_edges() == sorted(graph.edges.items())
    for fmt, write in REFERENCE_WRITERS.items():
        got = export_graph(graph, fmt, tmp_path / f"got.{fmt.value}")
        write(graph, tmp_path / f"want.{fmt.value}")
        assert got.read_bytes() == (tmp_path / f"want.{fmt.value}").read_bytes(), fmt


@given(st.integers(0, 2**32 - 1), st.sampled_from(list(GraphLevel)))
@settings(max_examples=60, deadline=None)
def test_indexed_analytics_match_references(tmp_path_factory, seed, level):
    rng = random.Random(seed)
    assert_matches_references(random_graph(rng, level), tmp_path_factory.mktemp("g"))


def test_unconverged_pagerank_matches_reference(tmp_path):
    graph = random_graph(random.Random(3), GraphLevel.JOB, p_edge=0.3)
    assert not weighted_pagerank(graph, FEW_ITERATIONS).converged
    assert_matches_references(graph, tmp_path, FEW_ITERATIONS)


@pytest.mark.parametrize(
    "nodes, edges",
    [
        (set(), {}),  # empty
        ({"a", "b", "c"}, {}),  # edgeless
        ({"a"}, {("a", "a"): 4}),  # a lone self-loop
        ({"a", "b", "z"}, {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 1}),  # z isolated
    ],
)
def test_degenerate_graphs_match_references(tmp_path, nodes, edges):
    graph = HopGraph(level=GraphLevel.ORG, nodes=nodes, node_support={}, edges=edges)
    assert_matches_references(graph, tmp_path)


def test_prefix_titles_keep_tuple_order(tmp_path):
    a, b, c = JobKey("analyst", "fin"), JobKey("analyst", "tech"), JobKey("analyst ii", "fin")
    graph = HopGraph(
        level=GraphLevel.JOB, nodes={a, b, c}, node_support={a: 1},
        edges={(c, a): 1, (a, c): 2, (b, b): 3},
    )
    assert graph.index.nodes == (a, b, c)
    assert graph.index.edges == ((a, c), (b, b), (c, a))
    assert graph.index.src.tolist() == [0, 1, 2]
    assert graph.index.dst.tolist() == [2, 1, 0]
    assert graph.index.weight.tolist() == [2, 3, 1]
    assert_matches_references(graph, tmp_path)


def test_index_is_read_only_and_checks_endpoints():
    graph = HopGraph(level=GraphLevel.ORG, nodes={"a", "b"}, node_support={}, edges={("a", "b"): 1})
    assert isinstance(graph.nodes, frozenset)
    with pytest.raises(ValueError):
        graph.index.weight[0] = 5
    with pytest.raises(ValueError, match="'c'"):
        HopGraph(level=GraphLevel.ORG, nodes={"a"}, node_support={}, edges={("a", "c"): 1})


def build_every_way(hops, profiles, cfg):
    return [
        build_graph(hops, level, cfg, profiles=source, distinct_users=distinct)
        for level in GraphLevel
        for source in (None, profiles)
        for distinct in (False, True)
    ]


@pytest.mark.parametrize("min_support", [1, 3])
def test_build_graph_never_rekeys_through_graph_index_of(monkeypatch, min_support):
    rng = random.Random(11)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(60)]
    cfg = config("2016-06", min_support=min_support)
    hops, _ = extract_all_hops(profiles, cfg)

    def refuse(*args):
        raise AssertionError("build_graph re-keyed its graph through GraphIndex.of")

    monkeypatch.setattr(hopgraph.GraphIndex, "of", refuse)
    built = build_every_way(hops, profiles, cfg)
    monkeypatch.undo()
    assert any(g.edges for g in built)
    for graph in built:
        # The same graph from its key dicts, indexed by GraphIndex.of.
        keyed = HopGraph(graph.level, graph.nodes, graph.node_support, dict(graph.edges))
        assert keyed == graph
        ours, theirs = graph.index, keyed.index
        assert theirs is not ours
        assert (ours.nodes, ours.edges) == (theirs.nodes, theirs.edges)
        for name in ("src", "dst", "weight"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist() and not a.flags.writeable
            assert not b.flags.writeable
        # Given an edge map over its own index, the graph keeps that index.
        given = HopGraph(graph.level, ours.nodes, graph.node_support, EdgeMap(ours))
        assert given == graph and given.index is ours and given.nodes == graph.nodes
        # A copy with other nodes is indexed from them, not given the old index.
        extra = JobKey("~", "~") if graph.level is GraphLevel.JOB else "~"
        wider = replace(given, nodes=graph.nodes | {extra})
        assert wider.index.nodes == tuple(sorted(wider.nodes)) and extra in wider.index.nodes


# --- edge keys built on read --------------------------------------------------

def eager_edges(idx):
    """The key tuples and edge dict of an index, as they were built eagerly."""
    key = idx.nodes.__getitem__
    keys = tuple(zip(map(key, idx.src.tolist()), map(key, idx.dst.tolist())))
    return keys, dict(zip(keys, idx.weight.tolist()))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(GraphLevel)),
    st.sampled_from([1, 3]),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_edge_keys_read_as_the_eager_ones(tmp_path_factory, seed, level, min_support, distinct):
    rng = random.Random(seed)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(40)]
    cfg = config("2016-06", min_support=min_support)
    hops, _ = extract_all_hops(profiles, cfg)
    graph = build_graph(hops, level, cfg, profiles=profiles, distinct_users=distinct)
    idx = graph.index
    keys, edges = eager_edges(idx)
    assert len(graph.edges) == len(edges) and graph.sparsity() == (
        len(edges) / len(graph.nodes) ** 2 if graph.nodes else 0.0
    )
    assert idx.edges == keys == tuple(sorted(keys))
    assert graph.edges == edges and edges == graph.edges
    assert list(graph.edges.items()) == list(edges.items())  # index order
    assert graph.edges is graph.edges and idx.edges is idx.edges
    assert graph.sorted_edges() == list(edges.items())

    keyed = HopGraph(level, graph.nodes, graph.node_support, edges)
    assert keyed == graph and graph == keyed and keyed.edges is edges
    assert replace(graph) == graph and replace(graph, edges=edges) == graph
    if edges:
        fewer = dict(list(edges.items())[1:])
        assert replace(graph, edges=fewer) != graph and graph.edges != fewer
        copy = replace(graph, edges=fewer)  # indexed from its own edges
        assert copy.index.edges == tuple(fewer) and copy.index.weight.tolist() == list(fewer.values())
    path = export_graph(graph, ExportFormat.CSV_EDGELIST, tmp_path_factory.mktemp("e") / "g.csv")
    back = import_graph_csv(path, level)
    assert back.edges == graph.edges and graph.edges == back.edges
    assert back.nodes == {n for edge in edges for n in edge}
    touched = HopGraph(level, back.nodes, {}, graph.edges)
    assert back == touched


def test_graph_sweep_and_report_all_build_no_edge_key(tmp_path, monkeypatch):
    # Building, analysing and exporting a graph reads its id arrays only:
    # no edge key tuple and no edge dict is made unless a key is read.
    spec = GeneratorSpec(seed=5, n_users=300)
    generate(spec, tmp_path / "c.jsonl", tmp_path / "t.json")
    profiles, _ = ingest_profiles(tmp_path / "c.jsonl")
    active = filter_active(profiles)
    cfg = config(str(spec.curr_date), min_support=1)
    hops, _ = extract_all_hops(active, cfg)
    calls = Counter()
    monkeypatch.setattr(GraphIndex, "_edge_keys", counting(calls, "key tuples", GraphIndex._edge_keys))
    monkeypatch.setattr(EdgeMap, "_build", counting(calls, "edge dict", EdgeMap._build))

    reports.write_all_reports(profiles, cfg, tmp_path / "out")
    graphs = []
    for level in GraphLevel:
        for distinct in (False, True):
            graph = build_graph(hops, level, cfg, profiles=active, distinct_users=distinct)
            tables = [
                degree_centrality(graph, Direction.IN),
                degree_centrality(graph, Direction.OUT),
                weighted_pagerank(graph, cfg),
            ]
            component_report(graph)
            for table in tables:
                centrality_ccdf(table)
                top_k(table, 20)
                fit_power_law([max(1, round(s * 1e6)) for s in table.scores.values()], 3)
            for fmt in ExportFormat:
                export_graph(graph, fmt, tmp_path / f"{level.value}{distinct}.{fmt.value}")
            assert len(graph.edges) == len(graph.index.src) > 0 and graph.sparsity() > 0
            graphs.append(graph)
    assert calls == Counter()

    graph = graphs[0]
    first = next(iter(graph.edges))
    assert graph.edges[first] == graph.index.weight[0] and graph.index.edges[0] == first
    assert dict(graph.edges) == eager_edges(graph.index)[1]
    assert calls == Counter({"key tuples": 1, "edge dict": 1})


# --- the edge-cursor Tarjan against the frame loop ----------------------------

def csr(n, edges):
    """start and nbrs lists of a digraph on n nodes, neighbors in edge order."""
    out = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    start = [0]
    for targets in out:
        start.append(start[-1] + len(targets))
    return start, [v for targets in out for v in targets]


@st.composite
def digraphs(draw):
    """Random edges plus self-loops and cycles nested inside cycles."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edges += [(v, v) for v in draw(st.lists(node, max_size=5))]
    for _ in range(draw(st.integers(0, 4))):
        ring = draw(st.lists(node, min_size=1, max_size=12, unique=True))
        edges += list(zip(ring, ring[1:] + ring[:1]))
        inner = ring[: draw(st.integers(1, len(ring)))]  # a cycle through part of it
        edges += list(zip(inner, inner[1:] + inner[:1]))
    return n, draw(st.permutations(edges))


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_cursor_tarjan_matches_the_frame_loop(graph):
    n, edges = graph
    start, nbrs = csr(n, edges)
    got = _strongly_connected(start, nbrs)
    assert got == frame_strongly_connected(start, nbrs)
    assert sorted(v for comp in got for v in comp) == list(range(n))


RING = 5000


@pytest.mark.parametrize("tail", [0, RING], ids=["ring", "ring with a tail"])
def test_cursor_tarjan_on_a_deep_ring(tail):
    # Tail nodes 0..tail-1 form a path into ring node tail, so the scan goes
    # tail + RING nodes deep and the ring's lowlink travels back along all
    # of it.
    n = tail + RING
    ring = list(range(tail, n))
    edges = [(v, v + 1) for v in range(tail)] + list(zip(ring, ring[1:] + ring[:1]))
    start, nbrs = csr(n, edges)
    got = _strongly_connected(start, nbrs)
    assert got == frame_strongly_connected(start, nbrs)
    assert sorted(map(sorted, got)) == [[v] for v in range(tail)] + [ring]
    names = [f"n{v:05d}" for v in range(n)]
    graph = HopGraph(
        level=GraphLevel.ORG, nodes=set(names), node_support={},
        edges={(names[u], names[v]): 1 for u, v in edges},
    )
    comps = connected_components(graph, ComponentMode.STRONG)
    assert comps[0] == names[tail:] and len(comps) == tail + 1


# --- weak components by hooking ----------------------------------------------

PATH = 20_000
PATH_ORDERS = {
    "monotone": list(range(PATH)),
    "reversed": list(range(PATH - 1, -1, -1)),
    "shuffled": random.Random(17).sample(range(PATH), PATH),
    "zigzag": [v for pair in zip(range(PATH // 2), range(PATH - 1, PATH // 2 - 1, -1)) for v in pair],
}


@pytest.mark.parametrize("order", sorted(PATH_ORDERS))
def test_weak_components_of_a_long_path_match_the_reference(order):
    # The path's n-th node has about id PATH_ORDERS[order][n], so the
    # smallest ids sit at its ends, its middle or all over it. One id in
    # every 1001 is left off the path as an isolated node, and a few nodes
    # carry self-loops.
    spread = [v + v // 1000 for v in PATH_ORDERS[order]]
    isolated = [v * 1001 + 1000 for v in range(PATH // 1000)]
    names = [f"n{v:06d}" for v in range(PATH + len(isolated))]
    edges = {(names[u], names[v]): 1 for u, v in zip(spread, spread[1:])}
    edges.update({(names[v], names[v]): 2 for v in spread[::997] + isolated[::3]})
    graph = HopGraph(level=GraphLevel.ORG, nodes=set(names), node_support={}, edges=edges)
    want = reference_components(graph, ComponentMode.WEAK)
    assert len(want) == 1 + len(isolated) and len(want[0]) == PATH
    assert connected_components(graph, ComponentMode.WEAK) == want
    report = component_report(graph)
    assert (report.wcc_count, report.largest_wcc_size, report.second_wcc_size) == (len(want), PATH, 1)


# --- csv quoting ---------------------------------------------------------------

LABELS = st.text(
    st.one_of(st.sampled_from(',"\n\r |'), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)


def exportable(node):
    try:
        node_to_str(node)
    except ValueError:  # an industry that runs into the ' | ' separator
        return False
    return True


def csv_writer_text(rows, lineterminator):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator).writerows(rows)
    return buf.getvalue()


@given(
    st.lists(LABELS, min_size=1, max_size=6, unique=True),
    st.sampled_from(list(GraphLevel)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_csv_export_quotes_labels_as_csv_writer_and_reads_back(tmp_path_factory, labels, level, rng):
    if level is GraphLevel.ORG:
        nodes = labels
    else:
        nodes = [JobKey(t, i) for t, i in zip(labels, reversed(labels))]
    nodes = [n for n in nodes if exportable(n)]
    edges = {(u, v): rng.randint(1, 99) for u in nodes for v in nodes if rng.random() < 0.4}
    graph = HopGraph(level=level, nodes=set(nodes), node_support={}, edges=edges)
    path = export_graph(graph, ExportFormat.CSV_EDGELIST, tmp_path_factory.mktemp("q") / "g.csv")

    rows = [["src", "dst", "weight"]] + [
        [node_to_str(u), node_to_str(v), w] for (u, v), w in sorted(edges.items())
    ]
    text = path.read_bytes().decode("utf-8")
    if not any("\r" in cell for row in rows for cell in row[:2]):
        assert text == csv_writer_text(rows, "\n")
    # csv.writer's own rule when a carriage return also counts as a line
    # break: a label with a lone "\r" is quoted so that it reads back.
    assert text == "".join(csv_writer_text([row], "\r\n")[:-2] + "\n" for row in rows)
    back = import_graph_csv(path, level)
    assert back.edges == edges
    assert back.nodes == {n for edge in edges for n in edge}


NUMPY_MA_PROBE = """
import sys, tempfile
from pathlib import Path

import numpy

preloaded = "numpy.ma" in sys.modules  # numpy 1.x imports it eagerly
from talentflow import graphalgo, hopgraph
from talentflow.hops import extract_all_hops
from talentflow.ingest import filter_active, ingest_profiles
from talentflow.model import AnalysisConfig
from talentflow.synthgen import GeneratorSpec, generate

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    spec = GeneratorSpec(seed=5, n_users=300)
    generate(spec, tmp / "c.jsonl", tmp / "t.json")
    profiles, _ = ingest_profiles(tmp / "c.jsonl")
    active = filter_active(profiles)
    config = AnalysisConfig(curr_date=spec.curr_date, min_support=1)
    hops, _ = extract_all_hops(active, config)
    for level in hopgraph.GraphLevel:
        graph = hopgraph.build_graph(hops, level, config, profiles=active)
        tables = [
            graphalgo.degree_centrality(graph, graphalgo.Direction.IN),
            graphalgo.degree_centrality(graph, graphalgo.Direction.OUT),
            graphalgo.weighted_pagerank(graph, config),
        ]
        for table in tables:
            graphalgo.centrality_ccdf(table)
            graphalgo.top_k(table, 5)
            graphalgo.fit_power_law([max(1, round(s * 1e6)) for s in table.scores.values()], 3)
        graphalgo.component_report(graph)
        for mode in graphalgo.ComponentMode:
            graphalgo.connected_components(graph, mode)
        for fmt in hopgraph.ExportFormat:
            hopgraph.export_graph(graph, fmt, tmp / f"{level.value}.{fmt.value}")
print(preloaded, "numpy.ma" in sys.modules)
"""


def test_graph_layer_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on first call, about 2 MB of peak memory.
    src = str(Path(talentflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    preloaded, loaded = out.stdout.split()
    assert loaded == preloaded
