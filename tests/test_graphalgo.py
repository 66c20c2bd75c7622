import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talentflow import graphalgo
from talentflow.graphalgo import (
    CentralityMetric,
    CentralityTable,
    ComponentMode,
    Direction,
    InsufficientTailError,
    PowerLawFit,
    centrality_ccdf,
    component_report,
    connected_components,
    degree_centrality,
    fit_power_law,
    top_k,
    weighted_pagerank,
)
from talentflow.hopgraph import GraphLevel, HopGraph, build_graph
from talentflow.hops import extract_all_hops
from talentflow.ingest import filter_active, ingest_profiles
from talentflow.model import PAGERANK_ITERATION_LIMIT, run_starts
from talentflow.synthgen import GeneratorSpec, generate
from helpers import config


def make_graph(n, edges):
    nodes = {f"n{i:02d}" for i in range(n)}
    return HopGraph(
        level=GraphLevel.ORG,
        nodes=nodes,
        node_support={x: 1 for x in nodes},
        edges={(f"n{u:02d}", f"n{v:02d}"): w for u, v, w in edges},
    )


def random_graph(rng, max_nodes=20, max_weight=9, p_edge=0.15, allow_self_loops=True):
    n = rng.randint(1, max_nodes)
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v and not allow_self_loops:
                continue
            if rng.random() < p_edge:
                edges.append((u, v, rng.randint(1, max_weight)))
    return make_graph(n, edges), n


# --- dense oracles ------------------------------------------------------------

def pagerank_dense_solve(graph, teleport):
    """Solve the stationary equations directly with dense linear algebra."""
    nodes = sorted(graph.nodes)
    n = len(nodes)
    idx = {x: i for i, x in enumerate(nodes)}
    W = np.zeros((n, n))
    for (u, v), w in graph.edges.items():
        W[idx[u], idx[v]] = w
    out = W.sum(axis=1)
    P = np.where(out[:, None] > 0, W / np.where(out[:, None] > 0, out[:, None], 1.0), 1.0 / n)
    A = np.eye(n) - (1.0 - teleport) * P.T
    r = np.linalg.solve(A, np.full(n, teleport / n))
    return {x: r[idx[x]] for x in nodes}


def reachability(graph):
    nodes = sorted(graph.nodes)
    n = len(nodes)
    idx = {x: i for i, x in enumerate(nodes)}
    R = np.eye(n, dtype=bool)
    for u, v in graph.edges:
        R[idx[u], idx[v]] = True
    for k in range(n):
        R |= np.outer(R[:, k], R[k, :])
    return nodes, R


def scc_oracle(graph):
    nodes, R = reachability(graph)
    mutual = R & R.T
    comps = []
    seen = set()
    for i, x in enumerate(nodes):
        if x in seen:
            continue
        comp = {nodes[j] for j in range(len(nodes)) if mutual[i, j]}
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def wcc_oracle(graph):
    sym = HopGraph(
        level=graph.level,
        nodes=set(graph.nodes),
        node_support={},
        edges={**{(u, v): 1 for u, v in graph.edges}, **{(v, u): 1 for u, v in graph.edges}},
    )
    return scc_oracle(sym)


# --- degrees ------------------------------------------------------------------

def test_star_in_degree():
    g = make_graph(6, [(i, 0, 3) for i in range(1, 6)])
    table = degree_centrality(g, Direction.IN)
    assert table.scores["n00"] == 5
    assert all(table.scores[f"n{i:02d}"] == 0 for i in range(1, 6))
    out = degree_centrality(g, Direction.OUT)
    assert out.scores["n00"] == 0
    assert out.metric is CentralityMetric.OUT_DEGREE


def test_isolated_node_zero():
    g = make_graph(2, [])
    assert degree_centrality(g, Direction.IN).scores == {"n00": 0.0, "n01": 0.0}


def test_self_loop_counts_once_each_way():
    g = make_graph(1, [(0, 0, 7)])
    assert degree_centrality(g, Direction.IN).scores["n00"] == 1
    assert degree_centrality(g, Direction.OUT).scores["n00"] == 1


def test_degree_ignores_weights():
    g1 = make_graph(3, [(0, 1, 1), (0, 2, 1)])
    g9 = make_graph(3, [(0, 1, 9), (0, 2, 4)])
    assert degree_centrality(g1, Direction.OUT).scores == degree_centrality(g9, Direction.OUT).scores


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_degrees_match_binarized_matrix(seed):
    rng = random.Random(seed)
    g, n = random_graph(rng, max_nodes=30)
    idx = {x: i for i, x in enumerate(sorted(g.nodes))}
    A = np.zeros((n, n), dtype=int)
    for u, v in g.edges:
        A[idx[u], idx[v]] = 1
    indeg = degree_centrality(g, Direction.IN).scores
    outdeg = degree_centrality(g, Direction.OUT).scores
    for x, i in idx.items():
        assert indeg[x] == A[:, i].sum()
        assert outdeg[x] == A[i, :].sum()


# --- pagerank -------------------------------------------------------------------

CFG = config("2016-06")
TIGHT = config("2016-06", pagerank_tol=1e-14, pagerank_max_iter=2000)


def test_three_cycle_uniform():
    g = make_graph(3, [(0, 1, 4), (1, 2, 4), (2, 0, 4)])
    table = weighted_pagerank(g, CFG)
    for score in table.scores.values():
        assert score == pytest.approx(1 / 3, abs=1e-9)


def test_two_node_weighted_pair_equal_scores():
    # One out-edge each: row normalization erases the 3:1 weight asymmetry.
    g = make_graph(2, [(0, 1, 3), (1, 0, 1)])
    table = weighted_pagerank(g, CFG)
    assert table.scores["n00"] == pytest.approx(table.scores["n01"], abs=1e-12)


def test_single_node():
    g = make_graph(1, [])
    assert weighted_pagerank(g, CFG).scores == {"n00": 1.0}


def test_empty_graph_rejected():
    g = make_graph(0, [])
    with pytest.raises(ValueError):
        weighted_pagerank(g, CFG)


def test_not_converged_flag():
    # Asymmetric: the uniform start vector is far from the fixed point.
    g = make_graph(10, [(i, (i + 1) % 10, 1) for i in range(10)] + [(0, 5, 4)])
    cfg = config("2016-06", pagerank_tol=1e-300, pagerank_max_iter=3)
    table = weighted_pagerank(g, cfg)
    assert not table.converged
    assert table.iterations == 3


def test_default_cap_converges_the_slowest_graph():
    # A star whose leaves all link back has period 2: the uniform start's
    # error shrinks by only 1 - teleport_prob a step, the slowest rate there
    # is, so the default cap must cover the bound that rate gives, at any
    # teleport probability.
    g = make_graph(21, [(0, i, 1) for i in range(1, 21)] + [(i, 0, 1) for i in range(1, 21)])
    for cfg in (CFG, config("2016-06", teleport_prob=0.05)):
        table = weighted_pagerank(g, cfg)
        assert table.converged and table.iterations > 100
        bound = 1 + math.log(cfg.pagerank_tol / 2) / math.log(1 - cfg.teleport_prob)
        assert cfg.pagerank_iteration_cap >= math.ceil(bound)
    assert CFG.pagerank_iteration_cap == 119


def test_a_tiny_teleport_caps_pagerank_at_the_limit():
    # ln(1 - teleport) used to give 19,113,820 steps at 1e-6 and divide by
    # zero at 1e-17, where 1 - teleport rounds to 1.
    assert config("2016-06", teleport_prob=0.001).pagerank_iteration_cap == 19_106
    assert PAGERANK_ITERATION_LIMIT > 19_106
    for teleport in (1e-6, 1e-15, 1e-17, 5e-324):
        cfg = config("2016-06", teleport_prob=teleport)
        assert cfg.pagerank_iteration_cap == PAGERANK_ITERATION_LIMIT
        explicit = config("2016-06", teleport_prob=teleport, pagerank_max_iter=50_000)
        assert explicit.pagerank_iteration_cap == 50_000
    g = make_graph(3, [(0, 1, 1), (1, 0, 1), (2, 0, 1)])
    table = weighted_pagerank(g, config("2016-06", teleport_prob=1e-17))
    assert not table.converged and table.iterations == PAGERANK_ITERATION_LIMIT


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pagerank_matches_dense_solve(seed):
    rng = random.Random(seed)
    g, _ = random_graph(rng)
    table = weighted_pagerank(g, TIGHT)
    expected = pagerank_dense_solve(g, TIGHT.teleport_prob)
    for x, r in expected.items():
        assert table.scores[x] == pytest.approx(r, abs=1e-10)
    assert abs(sum(table.scores.values()) - 1.0) <= 1e-9
    assert all(s > 0 for s in table.scores.values())


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 10]))
@settings(max_examples=30, deadline=None)
def test_pagerank_weight_scale_invariance(seed, factor):
    rng = random.Random(seed)
    g, _ = random_graph(rng)
    scaled = HopGraph(
        level=g.level, nodes=set(g.nodes), node_support=dict(g.node_support),
        edges={e: w * factor for e, w in g.edges.items()},
    )
    t1 = weighted_pagerank(g, CFG)
    t2 = weighted_pagerank(scaled, CFG)
    for x in g.nodes:
        assert abs(t1.scores[x] - t2.scores[x]) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_pagerank_teleport_floor(seed):
    rng = random.Random(seed)
    g, n = random_graph(rng)
    table = weighted_pagerank(g, TIGHT)
    floor = CFG.teleport_prob / n
    for s in table.scores.values():
        assert s >= floor - 1e-12


# --- components -------------------------------------------------------------------

def test_directed_three_cycle_one_scc():
    g = make_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    comps = connected_components(g, ComponentMode.STRONG)
    assert [len(c) for c in comps] == [3]


def test_path_sccs_and_wcc():
    g = make_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert [len(c) for c in connected_components(g, ComponentMode.STRONG)] == [1, 1, 1]
    assert [len(c) for c in connected_components(g, ComponentMode.WEAK)] == [3]


def test_component_report_fields():
    g = make_graph(5, [(0, 1, 1), (1, 0, 1), (2, 3, 1)])
    report = component_report(g)
    assert report.scc_count == 4
    assert report.largest_scc_size == 2
    assert report.largest_scc_fraction == pytest.approx(0.4)
    assert report.second_scc_size == 1
    assert report.wcc_count == 3
    assert report.largest_wcc_size == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_components_match_closure_oracle(seed):
    rng = random.Random(seed)
    g, _ = random_graph(rng, max_nodes=30)
    strong = {frozenset(c) for c in connected_components(g, ComponentMode.STRONG)}
    weak = {frozenset(c) for c in connected_components(g, ComponentMode.WEAK)}
    assert strong == scc_oracle(g)
    assert weak == wcc_oracle(g)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scc_partition_refines_wcc(seed):
    rng = random.Random(seed)
    g, n = random_graph(rng, max_nodes=30)
    sccs = connected_components(g, ComponentMode.STRONG)
    wccs = connected_components(g, ComponentMode.WEAK)
    assert sum(len(c) for c in sccs) == n
    assert sum(len(c) for c in wccs) == n
    wcc_of = {x: i for i, comp in enumerate(wccs) for x in comp}
    for comp in sccs:
        assert len({wcc_of[x] for x in comp}) == 1


def test_deep_chain_no_recursion_blowup():
    n = 5000
    edges = {(f"n{i:05d}", f"n{i + 1:05d}"): 1 for i in range(n - 1)}
    nodes = {f"n{i:05d}" for i in range(n)}
    g = HopGraph(level=GraphLevel.ORG, nodes=nodes, node_support={}, edges=edges)
    assert len(connected_components(g, ComponentMode.STRONG)) == n


# --- power law -----------------------------------------------------------------

def sample_discrete_power_law(alpha, n, rng, xmax=100000):
    xs = np.arange(1, xmax + 1, dtype=np.float64)
    pmf = xs ** -alpha
    cdf = np.cumsum(pmf / pmf.sum())
    return (np.searchsorted(cdf, rng.random(n)) + 1).astype(int)


def test_power_law_recovery():
    rng = np.random.default_rng(42)
    values = sample_discrete_power_law(2.5, 10000, rng)
    fit = fit_power_law(values.tolist())
    assert abs(fit.alpha - 2.5) <= 0.1
    assert fit.n_tail >= 10
    assert 0.0 <= fit.ks_statistic <= 1.0


def test_all_equal_rejected():
    with pytest.raises(InsufficientTailError):
        fit_power_law([7] * 50)


def test_too_few_values_rejected():
    with pytest.raises(InsufficientTailError):
        fit_power_law([1, 2, 3])


def test_nonpositive_values_rejected():
    with pytest.raises(ValueError):
        fit_power_law([0] * 20)


def test_alpha_estimate_tightens_with_known_xmin():
    rng = np.random.default_rng(7)
    values = sample_discrete_power_law(3.0, 20000, rng)
    fit = fit_power_law(values.tolist())
    assert abs(fit.alpha - 3.0) <= 0.15


def preferential_attachment_indegrees(n=3000, seed=55):
    """In-degrees >= 1 when each newcomer cites 2 nodes with probability
    proportional to in-degree + 1."""
    rng = random.Random(seed)
    pool = [0]
    indeg = {0: 0}
    for v in range(1, n):
        indeg[v] = 0
        for _ in range(2):
            u = pool[rng.randrange(len(pool))]
            indeg[u] += 1
            pool.append(u)
        pool.append(v)
    return [d for d in indeg.values() if d >= 1]


def reference_fit(values, min_tail=10):
    """The per-cutoff loop over scipy.special.zeta that the batched scan replaced."""
    zeta = pytest.importorskip("scipy.special").zeta
    xs = np.asarray(sorted(values), dtype=np.int64)
    log_xs = np.log(xs.astype(np.float64))
    suffix_logsum = np.concatenate([np.cumsum(log_xs[::-1])[::-1], [0.0]])
    distinct = np.unique(xs)
    best = None
    for xmin in distinct:
        i = int(np.searchsorted(xs, xmin, side="left"))
        n_tail = len(xs) - i
        if n_tail < min_tail:
            break
        tail_values = distinct[distinct >= xmin]
        if len(tail_values) < 2:
            continue
        denom = suffix_logsum[i] - n_tail * np.log(xmin - 0.5)
        if denom <= 0:
            continue
        alpha = 1.0 + n_tail / denom
        if alpha <= 1.0:
            continue
        counts = np.searchsorted(xs, tail_values, side="right") - i
        model_cdf = 1.0 - zeta(alpha, tail_values.astype(np.float64) + 1.0) / zeta(alpha, float(xmin))
        ks = float(np.max(np.abs(counts / n_tail - model_cdf)))
        if best is None or ks < best[0]:
            best = (ks, int(xmin), float(alpha), n_tail)
    if best is None:
        return None  # fit_power_law raises InsufficientTailError
    ks, xmin, alpha, n_tail = best
    return PowerLawFit(alpha=alpha, xmin=xmin, ks_statistic=ks, n_tail=n_tail)


def assert_same_fit(fit, want, name=""):
    assert (fit.xmin, fit.n_tail, fit.alpha) == (want.xmin, want.n_tail, want.alpha), name
    assert abs(fit.ks_statistic - want.ks_statistic) <= 1e-12, name


def test_zeta_kernel_matches_scipy():
    zeta = pytest.importorskip("scipy.special").zeta
    rng = np.random.default_rng(2009)
    s = rng.uniform(1.001, 8.0, 5000)
    q = np.exp(rng.uniform(0.0, math.log(1e7), 5000))
    s_int = rng.uniform(1.001, 8.0, 200 * 20)
    q_int = np.repeat(np.arange(1.0, 201.0), 20)
    for ss, qq in ((s, q), (s_int, q_int)):
        np.testing.assert_allclose(graphalgo._hurwitz_zeta_scaled(ss, qq, 1.0), zeta(ss, qq), rtol=1e-13)
        # Scaled by some m <= q, as the fit scales by xmin <= every tail value.
        m = np.minimum(qq, 0.5 + qq * rng.uniform(0.0, 1.0, len(qq)))
        unscaled = zeta(ss, qq)
        assert np.all(unscaled >= np.finfo(np.float64).tiny)
        np.testing.assert_allclose(
            graphalgo._hurwitz_zeta_scaled(ss, qq, m) / m**ss, unscaled, rtol=1e-13
        )


def fit_parity_inputs():
    rng = np.random.default_rng(1000)
    for alpha in (1.3, 1.8, 2.5, 3.2, 4.5):
        for n in (50, 400, 5000):
            yield f"power law alpha={alpha} n={n}", sample_discrete_power_law(alpha, n, rng).tolist()
    yield "two-valued", [1] * 500 + [2] * 100
    yield "two-valued, wide", [3] * 40 + [90] * 9
    yield "steep at a small xmin", [9] * 200 + [10] * 3 + [11]
    yield "preferential attachment", preferential_attachment_indegrees()


@pytest.mark.parametrize("min_tail", [10, 3])
def test_fit_matches_per_cutoff_scipy_loop(min_tail):
    for name, values in fit_parity_inputs():
        want = reference_fit(values, min_tail)
        if want is None:
            with pytest.raises(InsufficientTailError):
                fit_power_law(values, min_tail)
        else:
            assert_same_fit(fit_power_law(values, min_tail), want, name)


def test_fit_spanning_several_blocks_matches_per_cutoff_loop(monkeypatch):
    values = sample_discrete_power_law(1.5, 400, np.random.default_rng(5)).tolist()
    want = reference_fit(values)
    monkeypatch.setattr(graphalgo, "_KS_BLOCK_PAIRS", 7)
    assert_same_fit(fit_power_law(values), want)


def test_ks_ties_go_to_the_smallest_xmin(monkeypatch):
    # A model CDF of 0 everywhere puts every cutoff's KS at exactly 1.
    monkeypatch.setattr(graphalgo, "_hurwitz_zeta_scaled", lambda s, q, m: np.ones(np.broadcast(s, q, m).shape))
    fit = fit_power_law([1, 2, 3, 4, 5] * 4)
    assert (fit.xmin, fit.n_tail, fit.ks_statistic) == (1, 20, 1.0)


def test_steep_tail_does_not_underflow():
    # Unscaled, zeta(alpha, xmin) underflows to subnormals on this input
    # (1.2e-318 at xmin 19461, whose exact KS is 0.14765 by 40-digit mpmath),
    # and the CDF ratios the scan compares lose their precision.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_power_law(list(range(1, 20000, 7)))
    assert math.isfinite(fit.ks_statistic)
    assert fit.ks_statistic < 0.1476
    assert fit.n_tail >= 10


def full_scan_fit(values, min_tail=10):
    """The batched scan over the whole (cutoff, distinct tail value) triangle
    that the pruned search replaced; it reads the kernel and the block size
    from graphalgo, as fit_power_law does."""
    xs = np.asarray(sorted(values), dtype=np.int64)
    if len(xs) == 0 or xs[0] < 1:
        raise ValueError("values must be positive integers")
    if len(xs) < min_tail:
        raise InsufficientTailError(f"need at least {min_tail} values, got {len(xs)}")

    log_xs = np.log(xs.astype(np.float64))
    suffix_logsum = np.concatenate([np.cumsum(log_xs[::-1])[::-1], [0.0]])
    first = run_starts(xs)
    distinct = xs[first]
    n_tail = len(xs) - first
    n_cut = min(int(np.count_nonzero(n_tail >= min_tail)), len(distinct) - 1)
    cut = np.arange(n_cut)
    denom = suffix_logsum[first[cut]] - n_tail[cut] * np.log(distinct[cut] - 0.5)
    cut = cut[denom > 0]
    alpha = 1.0 + n_tail[cut] / denom[cut]
    cut, alpha = cut[alpha > 1.0], alpha[alpha > 1.0]
    if len(cut) == 0:
        raise InsufficientTailError("no candidate cutoff leaves a fittable tail")

    xmin = distinct[cut].astype(np.float64)
    norm = graphalgo._hurwitz_zeta_scaled(alpha, xmin, xmin)
    upto = np.append(first[1:], len(xs))
    row_start = np.concatenate([[0], np.cumsum(len(distinct) - cut)])
    n_pairs = int(row_start[-1])
    ks = np.zeros(len(cut))
    for lo in range(0, n_pairs, graphalgo._KS_BLOCK_PAIRS):
        pair = np.arange(lo, min(lo + graphalgo._KS_BLOCK_PAIRS, n_pairs))
        row = np.searchsorted(row_start, pair, side="right") - 1
        j, t = cut[row], cut[row] + pair - row_start[row]
        emp_cdf = (upto[t] - first[j]) / n_tail[j]
        tail_sum = graphalgo._hurwitz_zeta_scaled(alpha[row], distinct[t] + 1.0, xmin[row])
        dev = np.abs(emp_cdf - (1.0 - tail_sum / norm[row]))
        heads = run_starts(row)
        ks[row[heads]] = np.maximum(ks[row[heads]], np.maximum.reduceat(dev, heads))

    best = int(np.argmin(ks))  # the first minimum: smallest xmin on ties
    return PowerLawFit(
        alpha=float(alpha[best]),
        xmin=int(distinct[cut[best]]),
        ks_statistic=float(ks[best]),
        n_tail=int(n_tail[cut[best]]),
    )


def fit_outcome(fit, values, min_tail):
    try:
        return fit(values, min_tail)
    except ValueError as exc:  # InsufficientTailError too
        return f"{type(exc).__name__}: {exc}"


def assert_pruned_equals_full_scan(values, min_tail, name=""):
    """Equal fits, KS included, at the default block size and at 7 pairs.
    The full scan's result does not depend on its block size."""
    want = fit_outcome(full_scan_fit, values, min_tail)
    assert fit_outcome(fit_power_law, values, min_tail) == want, name
    with mock.patch.object(graphalgo, "_KS_BLOCK_PAIRS", 7):
        assert fit_outcome(fit_power_law, values, min_tail) == want, (name, "7-pair blocks")


@pytest.mark.parametrize("min_tail", [10, 3])
def test_pruned_scan_equals_full_scan(min_tail):
    for name, values in fit_parity_inputs():
        assert_pruned_equals_full_scan(values, min_tail, name)


def few_distinct_values():
    """Lists of repeated values from a small drawn set (one or two values too)."""
    return st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=0, max_size=400)
    )


@settings(max_examples=150, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.integers(1, 60), max_size=300),
        st.lists(st.integers(1, 10**6), max_size=300),
        st.lists(st.integers(1, 40), min_size=1, max_size=40).map(lambda v: v * 8),
        few_distinct_values(),
    ),
    min_tail=st.integers(1, 12),
)
def test_pruned_scan_equals_full_scan_on_drawn_values(values, min_tail):
    assert_pruned_equals_full_scan(values, min_tail)


@pytest.fixture(scope="module")
def wide_corpus_pagerank_values(tmp_path_factory):
    """PageRank ppm values, as `graph powerlaw` fits them, of a small corpus
    of the benchmark's wide shape (40 industries x 10 titles x 25 orgs)."""
    tmp = tmp_path_factory.mktemp("wide")
    ladders = {f"sector {i:02d}": tuple(f"grade {r:02d}" for r in range(10)) for i in range(40)}
    spec = GeneratorSpec(seed=17, n_users=1500, titles_per_industry=ladders, orgs_per_industry=25)
    generate(spec, tmp / "c.jsonl", tmp / "t.json")
    active = filter_active(ingest_profiles(tmp / "c.jsonl")[0])
    hops, _ = extract_all_hops(active, config(str(spec.curr_date)))
    out = []
    for min_support in (1, 5):
        cfg = config(str(spec.curr_date), min_support=min_support)
        for level in GraphLevel:
            graph = build_graph(hops, level, cfg, profiles=active)
            scores = weighted_pagerank(graph, cfg).scores.values()
            out.append((f"{level.value} min_support={min_support}", [max(1, round(s * 1e6)) for s in scores]))
    return out


def test_pruned_scan_equals_full_scan_on_pagerank_values(wide_corpus_pagerank_values):
    for name, values in wide_corpus_pagerank_values:
        assert len(set(values)) > 4 * graphalgo._KS_SAMPLE, name  # most cutoffs are pruned, not sampled whole
        for min_tail in (10, 3):
            assert_pruned_equals_full_scan(values, min_tail, name)


def test_ks_ties_go_to_the_smallest_xmin_in_any_bound_order(monkeypatch):
    # On 1..40 every cutoff's KS is 2^60, reached at one spiked tail value:
    # the first for xmin 1, which the bounds sample, and the last for every
    # other xmin, which they sample only for tails of at most _KS_SAMPLE
    # values. So xmin 1's bound is the tie value, xmin 2..24 have bounds
    # below it (not in xmin order), and xmin 1 is scored after all of them.
    values = list(range(1, 41))
    assert graphalgo._KS_SAMPLE < 30

    def spiked(s, q, m):
        q, m = np.broadcast_arrays(q, m)
        return np.where(np.where(m == 1.0, q == 2.0, q == 41.0), 2.0**60, 1.0)

    monkeypatch.setattr(graphalgo, "_hurwitz_zeta_scaled", spiked)
    fit = fit_power_law(values)
    assert (fit.xmin, fit.ks_statistic) == (1, 2.0**60)
    assert_pruned_equals_full_scan(values, 10)


def lognormal_values(n=700, seed=3):
    """Positive integers with a lognormal body, like the benchmark's PageRank ppm values."""
    return np.maximum(1, np.random.default_rng(seed).lognormal(7.0, 0.5, n)).astype(int).tolist()


def test_pruned_scan_scores_a_fraction_of_the_triangle(monkeypatch):
    values = lognormal_values()
    assert 450 <= len(set(values)) <= 650
    kernel = graphalgo._hurwitz_zeta_scaled
    sizes = []

    def counting(s, q, m):
        sizes.append(np.broadcast(s, q, m).size)
        return kernel(s, q, m)

    monkeypatch.setattr(graphalgo, "_hurwitz_zeta_scaled", counting)
    monkeypatch.setattr(graphalgo, "_KS_BLOCK_PAIRS", 64)
    full = full_scan_fit(values)
    triangle = sum(sizes)
    sizes.clear()
    assert fit_power_law(values) == full
    assert max(sizes) <= 64
    assert sum(sizes) <= triangle / 3


# --- ccdf and top-k ---------------------------------------------------------------

def table_of(scores):
    ranking = tuple(sorted(scores, key=lambda x: (-scores[x], x)))
    return CentralityTable(metric=CentralityMetric.IN_DEGREE, scores=scores, ranking=ranking)


def test_ccdf_examples():
    assert centrality_ccdf(table_of({"a": 1.0, "b": 1.0, "c": 2.0})) == [
        (1.0, 1.0),
        (2.0, pytest.approx(1 / 3)),
    ]
    assert centrality_ccdf(table_of({"a": 5.0})) == [(5.0, 1.0)]


def test_ccdf_empty_rejected():
    with pytest.raises(ValueError):
        centrality_ccdf(table_of({}))


@given(st.lists(st.integers(0, 30), min_size=1, max_size=40))
def test_ccdf_monotone_nonincreasing(values):
    scores = {f"n{i:02d}": float(v) for i, v in enumerate(values)}
    pts = centrality_ccdf(table_of(scores))
    assert pts[0][1] == 1.0
    assert all(a[0] < b[0] for a, b in zip(pts, pts[1:]))
    assert all(a[1] > b[1] for a, b in zip(pts, pts[1:]))


def test_top_k_tie_breaks_lexicographically():
    g = make_graph(2, [(0, 1, 3), (1, 0, 1)])
    table = weighted_pagerank(g, CFG)
    assert top_k(table, 1) == ["n00"]


def test_top_k_exceeding_size_returns_all():
    table = table_of({"b": 1.0, "a": 2.0})
    assert top_k(table, 10) == ["a", "b"]
    assert sorted(top_k(table, 2)) == ["a", "b"]


def test_top_k_rejects_zero():
    with pytest.raises(ValueError):
        top_k(table_of({"a": 1.0}), 0)


def test_all_dangling_graph_uniform():
    g = HopGraph(level=GraphLevel.ORG, nodes={"a", "b", "c"}, node_support={}, edges={})
    table = weighted_pagerank(g, CFG)
    for s in table.scores.values():
        assert s == pytest.approx(1 / 3, abs=1e-12)
    assert sum(table.scores.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [2.0, 3.5])
def test_power_law_recovery_other_exponents(alpha):
    rng = np.random.default_rng(1)
    fit = fit_power_law(sample_discrete_power_law(alpha, 10000, rng).tolist())
    assert abs(fit.alpha - alpha) <= 0.15


def test_two_valued_data_fits_without_crashing():
    fit = fit_power_law([1] * 500 + [2] * 100)
    assert fit.alpha > 1.0
    assert fit.n_tail == 600
