import random
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from talentflow.graphalgo import Direction, degree_centrality, top_k, weighted_pagerank
from talentflow.hopgraph import (
    ExportFormat,
    GraphLevel,
    HopGraph,
    build_graph,
    export_graph,
    import_graph_csv,
    node_from_str,
    node_to_str,
)
from talentflow.hops import Hop, HopKind, extract_all_hops
from talentflow.model import JobKey
from helpers import config, job, profile, random_profile, sorted_edges, sorted_nodes

CFG1 = config("2016-06", min_support=1)


def hop(src_t, src_o, src_i, dst_t, dst_o, dst_i, user="u1"):
    kind = HopKind.EXTERNAL if src_o != dst_o else HopKind.INTERNAL
    return Hop(
        user_id=user,
        source=job(src_t, src_o, src_i, "2010-01", "2011-01"),
        dest=job(dst_t, dst_o, dst_i, "2011-01", "2012-01"),
        kind=kind,
        duration_of_stay_months=12,
    )


def test_external_same_jobkey_is_job_graph_self_loop():
    h = hop("analyst", "acme", "fin", "analyst", "globex", "fin")
    g = build_graph([h], GraphLevel.JOB, CFG1)
    key = JobKey("analyst", "fin")
    assert g.edges == {(key, key): 1}
    assert g.self_loop_mass == 1
    org = build_graph([h], GraphLevel.ORG, CFG1)
    assert org.edges == {("acme", "globex"): 1}


def test_internal_hop_reaches_job_graph_only():
    h = hop("analyst", "acme", "fin", "lead", "acme", "fin")
    g = build_graph([h], GraphLevel.JOB, CFG1)
    assert g.edges == {(JobKey("analyst", "fin"), JobKey("lead", "fin")): 1}
    org = build_graph([h], GraphLevel.ORG, CFG1)
    assert org.edges == {}


def test_no_hops_empty_graph():
    g = build_graph([], GraphLevel.JOB, CFG1)
    assert g.nodes == set()
    assert g.edges == {}
    assert g.sparsity() == 0.0


def test_event_counting_vs_distinct_users():
    hops = [
        hop("a", "x", "i", "a", "y", "i", user="u1"),
        hop("a", "x", "i", "a", "y", "i", user="u1"),
        hop("a", "x", "i", "a", "y", "i", user="u2"),
    ]
    g = build_graph(hops, GraphLevel.ORG, CFG1)
    assert g.edges[("x", "y")] == 3
    g2 = build_graph(hops, GraphLevel.ORG, CFG1, distinct_users=True)
    assert g2.edges[("x", "y")] == 2


def test_support_from_profiles_counts_all_holders():
    # u3 holds the job but never hops; profile-based support sees it.
    mover = profile("u1", jobs=[
        job("a", "x", "i", "2010-01", "2011-01"),
        job("a", "y", "i", "2011-01", "2012-01"),
    ])
    holder = profile("u3", jobs=[job("a", "x", "i", "2012-01", "2013-01")])
    cfg = config("2016-06", min_support=2)
    hops, _ = extract_all_hops([mover, holder], cfg)
    g = build_graph(hops, GraphLevel.ORG, cfg, profiles=[mover, holder])
    assert g.node_support["x"] == 2
    assert "x" in g.nodes
    assert "y" not in g.nodes  # only u1 holds y


def test_future_start_adds_no_holder_support():
    mover = profile("u1", jobs=[
        job("a", "x", "i", "2010-01", "2011-01"),
        job("a", "y", "i", "2011-01", "2012-01"),
    ])
    # A closed stint that starts after the analysis date does not count.
    late = profile("u2", jobs=[job("a", "y", "i", "2017-01", "2018-01")])
    hops, _ = extract_all_hops([mover, late], CFG1)
    g = build_graph(hops, GraphLevel.ORG, CFG1, profiles=[mover, late])
    assert g.node_support == {"x": 1, "y": 1}
    g = build_graph(hops, GraphLevel.JOB, CFG1, profiles=[mover, late])
    assert g.node_support == {JobKey("a", "i"): 1}


def test_pruning_removes_dangling_edges_once():
    hops = [
        hop("a", "x", "i", "a", "y", "i", user="u1"),
        hop("a", "y", "i", "a", "z", "i", user="u2"),
    ]
    cfg = config("2016-06", min_support=2)
    # Hop-based fallback support: x:{u1}, y:{u1,u2}, z:{u2}
    g = build_graph(hops, GraphLevel.ORG, cfg)
    assert g.nodes == {"y"}
    assert g.edges == {}


def test_org_graph_never_has_self_loops():
    rng = random.Random(9)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(150)]
    hops, _ = extract_all_hops(profiles, CFG1)
    g = build_graph(hops, GraphLevel.ORG, CFG1, profiles=profiles)
    assert all(u != v for (u, v) in g.edges)


def brute_force_weights(hops, level):
    # Independent recount of edge weights from the hop list.
    weights = defaultdict(int)
    for h in hops:
        if level is GraphLevel.ORG:
            if h.source.organization == h.dest.organization:
                continue
            weights[(h.source.organization, h.dest.organization)] += 1
        else:
            weights[
                (
                    JobKey(h.source.title, h.source.industry),
                    JobKey(h.dest.title, h.dest.industry),
                )
            ] += 1
    return dict(weights)


@given(st.integers(0, 2**32 - 1), st.sampled_from([GraphLevel.JOB, GraphLevel.ORG]))
@settings(max_examples=40, deadline=None)
def test_weights_match_brute_force(seed, level):
    rng = random.Random(seed)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(40)]
    hops, _ = extract_all_hops(profiles, CFG1)
    g = build_graph(hops, level, CFG1, profiles=profiles)
    assert g.edges == brute_force_weights(hops, level)


def test_job_graph_weight_sum_conservation():
    rng = random.Random(123)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(80)]
    hops, _ = extract_all_hops(profiles, CFG1)
    g = build_graph(hops, GraphLevel.JOB, CFG1, profiles=profiles)
    differing = sum(1 for h in hops if h.source.key != h.dest.key)
    assert g.total_edge_weight - g.self_loop_mass == differing
    assert g.total_edge_weight == len(hops)  # min_support=1 keeps everything


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_pruning_monotone_in_min_support(seed):
    rng = random.Random(seed)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(60)]
    cfgs = [config("2016-06", min_support=s) for s in (1, 2, 3, 5, 10)]
    hops, _ = extract_all_hops(profiles, cfgs[0])
    sizes = []
    for cfg in cfgs:
        g = build_graph(hops, GraphLevel.ORG, cfg, profiles=profiles)
        sizes.append((len(g.nodes), len(g.edges)))
    for (n1, e1), (n2, e2) in zip(sizes, sizes[1:]):
        assert n2 <= n1
        assert e2 <= e1


def test_sparsity_formula():
    h = hop("a", "x", "i", "b", "y", "i")
    g = build_graph([h], GraphLevel.ORG, CFG1)
    assert g.sparsity() == 1 / 4


# --- export -------------------------------------------------------------------

def test_csv_export_single_edge(tmp_path):
    h = hop("a", "x", "i", "b", "y", "i")
    g = build_graph([h], GraphLevel.ORG, CFG1)
    path = export_graph(g, ExportFormat.CSV_EDGELIST, tmp_path / "g.csv")
    assert path.read_text() == "src,dst,weight\nx,y,1\n"


def test_csv_export_empty_graph(tmp_path):
    g = build_graph([], GraphLevel.ORG, CFG1)
    path = export_graph(g, ExportFormat.CSV_EDGELIST, tmp_path / "g.csv")
    assert path.read_text() == "src,dst,weight\n"


def test_csv_round_trip(tmp_path):
    rng = random.Random(5)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(80)]
    hops, _ = extract_all_hops(profiles, CFG1)
    for level in (GraphLevel.JOB, GraphLevel.ORG):
        g = build_graph(hops, level, CFG1, profiles=profiles)
        # Drop isolated nodes: an edge list cannot carry them.
        touched = {u for u, _ in g.edges} | {v for _, v in g.edges}
        g = HopGraph(level=level, nodes=touched,
                     node_support={n: g.node_support[n] for n in touched},
                     edges=dict(g.edges))
        path = export_graph(g, ExportFormat.CSV_EDGELIST, tmp_path / f"{level.value}.csv")
        back = import_graph_csv(path, level)
        assert back.level == g.level
        assert back.nodes == g.nodes
        assert back.edges == g.edges


def test_node_string_round_trip():
    key = JobKey("senior engineer", "tech")
    assert node_from_str(node_to_str(key), GraphLevel.JOB) == key
    assert node_from_str("acme corp", GraphLevel.ORG) == "acme corp"


def test_export_deterministic_bytes(tmp_path):
    rng = random.Random(6)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(50)]
    hops, _ = extract_all_hops(profiles, CFG1)
    g = build_graph(hops, GraphLevel.JOB, CFG1, profiles=profiles)
    blobs = []
    for fmt in ExportFormat:
        p1 = export_graph(g, fmt, tmp_path / f"a.{fmt.value}")
        p2 = export_graph(g, fmt, tmp_path / f"b.{fmt.value}")
        assert p1.read_bytes() == p2.read_bytes()
        blobs.append(p1.read_bytes())
    assert len({b[:20] for b in blobs}) == 3  # three genuinely different formats


def test_dot_and_graphml_wellformed(tmp_path):
    h = hop("a \"quoted\"", "x", "i", "b", "y", "i")
    g = build_graph([h], GraphLevel.JOB, CFG1)
    dot = export_graph(g, ExportFormat.DOT, tmp_path / "g.dot").read_text()
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert '\\"quoted\\"' in dot
    import xml.etree.ElementTree as ET

    gml_path = export_graph(g, ExportFormat.GRAPHML, tmp_path / "g.graphml")
    root = ET.parse(gml_path).getroot()
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    assert len(root.findall(f"{ns}graph/{ns}node")) == len(g.nodes)
    assert len(root.findall(f"{ns}graph/{ns}edge")) == len(g.edges)


def test_job_nodes_order_by_title_then_industry(tmp_path):
    # Tuple order, not the order of the rendered 'title | industry' labels,
    # which would put "analyst ii | fin" before "analyst | fin".
    a, b, c = JobKey("analyst", "fin"), JobKey("analyst", "tech"), JobKey("analyst ii", "fin")
    cycle = [
        hop("analyst", "x", "fin", "analyst ii", "x", "fin"),
        hop("analyst ii", "x", "fin", "analyst", "y", "tech"),
        hop("analyst", "y", "tech", "analyst", "z", "fin"),
    ]
    g = build_graph(cycle, GraphLevel.JOB, CFG1)
    assert sorted_nodes(g) == [a, b, c]
    assert [e for e, _ in sorted_edges(g)] == [(a, c), (b, a), (c, b)]
    for table in (degree_centrality(g, Direction.IN), weighted_pagerank(g, CFG1)):
        assert len(set(table.scores.values())) == 1
        assert top_k(table, 3) == [a, b, c]
    path = export_graph(g, ExportFormat.CSV_EDGELIST, tmp_path / "g.csv")
    assert path.read_text() == (
        "src,dst,weight\n"
        "analyst | fin,analyst ii | fin,1\n"
        "analyst | tech,analyst | fin,1\n"
        "analyst ii | fin,analyst | tech,1\n"
    )


def test_import_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        import_graph_csv(bad, GraphLevel.ORG)


def test_unicode_labels_survive_csv_round_trip(tmp_path):
    h = Hop(
        user_id="u1",
        source=job("ingénieur sénior", "café münchen", "tech", "2010-01", "2011-01"),
        dest=job("경영자", "서울상사", "tech", "2011-01", "2012-01"),
        kind=HopKind.EXTERNAL,
        duration_of_stay_months=12,
    )
    g = build_graph([h], GraphLevel.JOB, CFG1)
    path = export_graph(g, ExportFormat.CSV_EDGELIST, tmp_path / "u.csv")
    back = import_graph_csv(path, GraphLevel.JOB)
    assert back.edges == g.edges


@pytest.mark.parametrize("industry", ["fin | tech", "| tech", "tech |  | x"])
def test_industry_that_swallows_the_separator_fails_to_render(tmp_path, industry):
    # Exported as 'analyst | fin | tech', it would read back as
    # JobKey("analyst | fin", "tech").
    key = JobKey("analyst", industry)
    with pytest.raises(ValueError, match=re.escape(repr(f"analyst | {industry}"))):
        node_to_str(key)
    g = build_graph([hop("analyst", "x", industry, "lead", "y", "fin")], GraphLevel.JOB, CFG1)
    for fmt in ExportFormat:
        with pytest.raises(ValueError, match=re.escape(repr(industry))):
            export_graph(g, fmt, tmp_path / f"g.{fmt.value}")
    # Titles may contain it: the separator is the last ' | '.
    key = JobKey("a | b", "fin tech |x")
    assert node_from_str(node_to_str(key), GraphLevel.JOB) == key


@pytest.mark.parametrize(
    "rows, problem",
    [
        ("x,y,2\nx,y,3\n", "repeated edge"),
        ("x,y,0\n", "must be positive"),
        ("x,y,-3\n", "must be positive"),
    ],
)
def test_import_rejects_rows_export_never_writes(tmp_path, rows, problem):
    path = tmp_path / "g.csv"
    path.write_text("src,dst,weight\n" + rows)
    with pytest.raises(ValueError, match=problem) as err:
        import_graph_csv(path, GraphLevel.ORG)
    assert repr(rows.splitlines()[-1].split(",")) in str(err.value)
