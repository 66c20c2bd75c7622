"""Centrality and structure analytics for talent-flow graphs.

Degrees are unweighted neighbor counts (weights would re-introduce the
support bias the graphs were pruned to avoid). PageRank is the weighted
variant: each node spreads its rank over out-edges proportionally to edge
weight, dangling nodes spread theirs uniformly, and a teleport probability
(default 0.15) jumps to a uniformly random node; the result measures where
the flow of talent is heading globally. Components come in strong (follow
edge direction) and weak (ignore it) flavors. Centrality distributions are
summarized as complementary CDFs and by a discrete maximum-likelihood
power-law fit with a KS-minimizing tail cutoff. The fit's Hurwitz zeta
sums come from a numpy Euler-Maclaurin kernel, scaled by xmin^alpha so
that steep tails cannot underflow; numpy is the only runtime dependency.
The cutoff search is exact but pruned: a few deviations per cutoff give a
lower bound on its KS distance, and cutoffs are scored in full in bound
order only until the next bound exceeds the best distance found, so it
returns the fit a scan of every (cutoff, tail value) pair would, ties
going to the smallest xmin, while scoring a fraction of the pairs.

Every analytic reads the integer index a HopGraph holds
(hopgraph.GraphIndex): degrees are bincounts over its edge ids, PageRank
iterates over its id arrays, strong components walk a CSR adjacency over
node ids, Tarjan's scan resuming each node's edges from a per-node cursor,
and weak components come from min-label hooking with pointer jumping, a
few rounds of numpy passes over the edge arrays (see _weak_labels).
Rankings sort the node ids by score with Python's stable sorted (less peak
memory than an argsort here), so tied nodes keep id order, which is sorted
node order. None of them sorts or re-keys the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .hopgraph import GraphIndex, HopGraph, NodeKey
from .model import AnalysisConfig, cell_counts, run_starts


class CentralityMetric(str, Enum):
    IN_DEGREE = "indegree"
    OUT_DEGREE = "outdegree"
    PAGERANK = "pagerank"


class Direction(str, Enum):
    IN = "in"
    OUT = "out"


class InsufficientTailError(ValueError):
    """Too few tail points for a power-law fit at any cutoff."""


@dataclass(frozen=True)
class CentralityTable:
    """Scores plus the deterministic ranking (score desc, node asc)."""

    metric: CentralityMetric
    scores: dict[NodeKey, float]
    ranking: tuple[NodeKey, ...]
    converged: bool = True
    iterations: int = 0


def _table(
    metric: CentralityMetric, graph: HopGraph, values: np.ndarray,
    converged: bool = True, iterations: int = 0,
) -> CentralityTable:
    """A table of per-node-id values; the stable sort keeps ties in node order."""
    nodes = graph.index.nodes
    scores = values.tolist()
    order = sorted(range(len(nodes)), key=scores.__getitem__, reverse=True)
    return CentralityTable(
        metric=metric,
        scores=dict(zip(nodes, scores)),
        ranking=tuple(map(nodes.__getitem__, order)),
        converged=converged,
        iterations=iterations,
    )


def degree_centrality(graph: HopGraph, direction: Direction) -> CentralityTable:
    """Distinct in- or out-neighbor counts; a self-loop counts once each way."""
    idx = graph.index
    ends = idx.dst if direction is Direction.IN else idx.src
    # Edges are distinct (u, v) pairs, so counting ends counts neighbors.
    degree = np.bincount(ends, minlength=len(idx.nodes)).astype(np.float64)
    metric = CentralityMetric.IN_DEGREE if direction is Direction.IN else CentralityMetric.OUT_DEGREE
    return _table(metric, graph, degree)


def weighted_pagerank(graph: HopGraph, config: AnalysisConfig) -> CentralityTable:
    """Power iteration on the weight-normalized transition matrix.

    Each node's rank goes to its out-neighbors in proportion to edge weight
    (so scaling all weights leaves scores unchanged); dangling nodes
    redistribute their full rank uniformly; teleportation mixes in a uniform
    jump with probability config.teleport_prob. Iterates until the L1 change
    drops below config.pagerank_tol or config.pagerank_iteration_cap is hit
    (converged=False), which by default it never is.
    """
    idx = graph.index
    n = len(idx.nodes)
    if n == 0:
        raise ValueError("pagerank needs at least one node")
    src, dst = idx.src, idx.dst
    w = idx.weight.astype(np.float64)
    out_weight = np.bincount(src, weights=w, minlength=n)
    dangling = out_weight == 0.0
    prob = w / out_weight[src]

    teleport = config.teleport_prob
    rank = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, config.pagerank_iteration_cap + 1):
        flow = np.bincount(dst, weights=prob * rank[src], minlength=n)
        dangling_mass = rank[dangling].sum()
        new_rank = (1.0 - teleport) * (flow + dangling_mass / n) + teleport / n
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < config.pagerank_tol:
            converged = True
            break
    rank = rank / rank.sum()
    return _table(CentralityMetric.PAGERANK, graph, rank, converged, iterations)


def centrality(
    graph: HopGraph, metric: CentralityMetric, config: AnalysisConfig
) -> CentralityTable:
    """The metric's table: in- or out-degree, or weighted PageRank."""
    if metric is CentralityMetric.PAGERANK:
        return weighted_pagerank(graph, config)
    direction = Direction.IN if metric is CentralityMetric.IN_DEGREE else Direction.OUT
    return degree_centrality(graph, direction)


def _adjacency(idx: GraphIndex) -> tuple[list[int], list[int]]:
    """CSR adjacency over node ids, following edge direction: v's
    out-neighbors are nbrs[start[v]:start[v + 1]]."""
    start = np.zeros(len(idx.nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx.src, minlength=len(idx.nodes)), out=start[1:])  # src is sorted
    return start.tolist(), idx.dst.tolist()


def _strongly_connected(start: list[int], nbrs: list[int]) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative: the job graph can be deep enough to
    blow the recursion limit on long career chains.

    The depth-first path is a list of node ids, and cursor[v] is the
    position in nbrs of the next edge of v to scan, so returning to v
    resumes its scan where it stopped.
    """
    n = len(start) - 1
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    cursor = start[:-1]
    stack: list[int] = []
    components: list[list[int]] = []
    order = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = order
        order += 1
        stack.append(root)
        on_stack[root] = True
        path = [root]
        while path:
            v = path[-1]
            low = lowlink[v]
            i, end = cursor[v], start[v + 1]
            while i < end:
                nxt = nbrs[i]
                i += 1
                if index[nxt] < 0:
                    break
                if on_stack[nxt] and index[nxt] < low:
                    low = index[nxt]
            else:
                # v's scan is done: pass its lowlink up, close its component.
                path.pop()
                if path and low < lowlink[path[-1]]:
                    lowlink[path[-1]] = low
                if low == index[v]:
                    cut = len(stack)
                    while True:
                        cut -= 1
                        on_stack[stack[cut]] = False
                        if stack[cut] == v:
                            break
                    components.append(stack[cut:][::-1])
                    del stack[cut:]
                continue
            cursor[v] = i
            lowlink[v] = low
            index[nxt] = lowlink[nxt] = order
            order += 1
            stack.append(nxt)
            on_stack[nxt] = True
            path.append(nxt)
    return components


def _weak_labels(idx: GraphIndex) -> np.ndarray:
    """Each node id's weak component, named by the smallest node id in it.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 1982) on the edge arrays. label is a forest in which each
    node points at itself (a root) or at a smaller id. Each round hooks
    every root onto the smallest root across its edges, if that is smaller,
    jumps every pointer to its root, and drops the edges whose ends now
    share a root. A root that neither hooks nor is hooked onto in a round
    has only neighbors that hooked onto smaller roots, so it hooks in the
    next: the roots with a live edge at least halve every two rounds. When
    no edge is left, each root is the smallest id of its component.

    Each root's smallest neighbor root is the first of its cells among the
    ascending (larger root, smaller root) cells of the live edges
    (model.cell_counts). np.minimum.at would do without counting cells, but
    its first call pages in about 0.13 MB of numpy code, which showed in the
    peak memory of a report pass, whose graphs are small.
    """
    n = len(idx.nodes)
    label = np.arange(n, dtype=np.intp)
    live = idx.src != idx.dst
    src, dst = idx.src[live], idx.dst[live]
    while len(src):
        a, b = label[src], label[dst]
        (root, low), _, _ = cell_counts(np.maximum(a, b), np.minimum(a, b))
        first = run_starts(root)
        label[root[first]] = low[first]
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
        live = label[src] != label[dst]
        src, dst = src[live], dst[live]
    return label


class ComponentMode(str, Enum):
    STRONG = "strong"
    WEAK = "weak"


def _components(idx: GraphIndex, mode: ComponentMode) -> list[list[int]]:
    """The component partition as lists of node ids, in no set order."""
    if mode is ComponentMode.STRONG:
        return _strongly_connected(*_adjacency(idx))
    label = _weak_labels(idx)
    order = np.argsort(label, kind="stable")
    cuts = run_starts(label[order]).tolist() + [len(label)]
    ids = order.tolist()
    return [ids[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def connected_components(graph: HopGraph, mode: ComponentMode) -> list[list[NodeKey]]:
    """The component partition, largest first, nodes sorted within each."""
    comps = [sorted(c) for c in _components(graph.index, mode)]
    comps.sort(key=lambda c: (-len(c), c[0]))  # disjoint, so ties go by first node
    nodes = graph.index.nodes
    return [[nodes[i] for i in c] for c in comps]


@dataclass(frozen=True)
class ComponentReport:
    """Component counts and the sizes of the two largest, both flavors."""

    scc_count: int
    largest_scc_size: int
    largest_scc_fraction: float
    second_scc_size: int
    wcc_count: int
    largest_wcc_size: int
    largest_wcc_fraction: float
    second_wcc_size: int


def component_report(graph: HopGraph) -> ComponentReport:
    idx = graph.index
    n = len(idx.nodes)
    scc = sorted(map(len, _components(idx, ComponentMode.STRONG)), reverse=True)
    sizes = np.bincount(_weak_labels(idx), minlength=n)
    wcc = sorted(sizes[sizes > 0].tolist(), reverse=True)
    scc1, scc2 = (scc + [0, 0])[:2]
    wcc1, wcc2 = (wcc + [0, 0])[:2]
    return ComponentReport(
        scc_count=len(scc),
        largest_scc_size=scc1,
        largest_scc_fraction=scc1 / n if n else 0.0,
        second_scc_size=scc2,
        wcc_count=len(wcc),
        largest_wcc_size=wcc1,
        largest_wcc_fraction=wcc1 / n if n else 0.0,
        second_wcc_size=wcc2,
    )


@dataclass(frozen=True)
class PowerLawFit:
    """Discrete MLE fit of the distribution tail: p(x) ~ x^-alpha, x >= xmin."""

    alpha: float
    xmin: int
    ks_statistic: float
    n_tail: int


# Denominators (2k)!/B_2k of the Euler-Maclaurin corrections, as in Cephes.
_EULER_MACLAURIN = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_KS_BLOCK_PAIRS = 1 << 14  # bounds the memory of fit_power_law's KS scan
_KS_SAMPLE = 16  # tail values per cutoff in the scan's lower bounds


def _hurwitz_zeta_scaled(s: np.ndarray, q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_k ((q + k) / m)^-s = m^s * zeta(s, q), elementwise, for s > 1, q >= 1.

    Cephes' Euler-Maclaurin summation, the scheme of scipy.special.zeta:
    the terms k = 0..9 directly, then the integral of the rest and twelve
    Bernoulli corrections at w = q + 9. Those nine extra terms keep the
    corrections accurate when s is large against q, as in a steep fit at a
    small xmin (alpha can reach 2 xmin + 1). With m = xmin the terms of the
    fit's sums are at most 1, so the normaliser never underflows.
    """
    total = 0.0
    for k in range(10):
        term = ((q + k) / m) ** -s
        total = total + term
    w = q + 9.0
    total = total + term * w / (s - 1.0) - 0.5 * term
    rising, deriv = 1.0, term
    for i, denom in enumerate(_EULER_MACLAURIN):
        rising = rising * (s + 2 * i)
        deriv = deriv / w
        total = total + rising * deriv / denom
        rising = rising * (s + 2 * i + 1)
        deriv = deriv / w
    return total


def _blocks(n: int) -> list[tuple[int, int]]:
    """[lo, hi) spans of at most _KS_BLOCK_PAIRS covering range(n)."""
    step = _KS_BLOCK_PAIRS
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def fit_power_law(values: Sequence[int], min_tail: int = 10) -> PowerLawFit:
    """Fit a discrete power law to positive integer values.

    alpha = 1 + n / sum(ln(x_i / (xmin - 1/2))) over the tail x_i >= xmin,
    with xmin chosen to minimize the KS distance between the empirical tail
    CDF and the fitted zeta-normalized model
    P(X <= x) = 1 - zeta(alpha, x+1) / zeta(alpha, xmin). Both sums are taken
    scaled by xmin^alpha (see _hurwitz_zeta_scaled), so a steep tail cannot
    underflow the normaliser. Cutoffs are the distinct values in ascending
    order, up to the first that leaves fewer than min_tail points; one with a
    single-valued tail or alpha <= 1 is rejected, and on a KS tie the
    smallest xmin wins. If no cutoff remains, raises InsufficientTailError.

    The KS distances come from a pruned search that returns the same fit as
    scoring every (cutoff, distinct tail value) pair. First, each cutoff's
    deviation |empirical - model CDF| is taken at _KS_SAMPLE of its distinct
    tail values, the first and evenly spaced ones: their maximum is a lower
    bound on its KS distance, and the exact distance when the sample is its
    whole tail. Then cutoffs are scanned in ascending bound order (ties by
    xmin) and scored in full until the next bound exceeds the best KS found:
    every cutoff left has a KS distance above the best, so cannot win or tie.
    A deviation is the same float in both passes (the same elementwise
    arithmetic on the same pair), so the bounds hold exactly.
    """
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
    norm = np.concatenate([
        _hurwitz_zeta_scaled(alpha[lo:hi], xmin[lo:hi], xmin[lo:hi])
        for lo, hi in _blocks(len(cut))
    ])
    upto = np.append(first[1:], len(xs))
    width = len(distinct) - cut  # distinct tail values per cutoff

    def max_deviation(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Per row, the largest deviation at counts[i] of its distinct tail
        values, spaced width/count apart from the first; a block of pairs at
        a time, each row's maximum carried across blocks."""
        row_start = np.concatenate([[0], np.cumsum(counts)])
        n_pairs = int(row_start[-1])
        out = np.zeros(len(rows))
        for lo, hi in _blocks(n_pairs):
            pair = np.arange(lo, hi)
            i = np.searchsorted(row_start, pair, side="right") - 1
            row = rows[i]
            j = cut[row]
            t = j + (pair - row_start[i]) * width[row] // counts[i]
            emp_cdf = (upto[t] - first[j]) / n_tail[j]
            tail_sum = _hurwitz_zeta_scaled(alpha[row], distinct[t] + 1.0, xmin[row])
            dev = np.abs(emp_cdf - (1.0 - tail_sum / norm[row]))
            heads = run_starts(i)
            out[i[heads]] = np.maximum(out[i[heads]], np.maximum.reduceat(dev, heads))
        return out

    bound = max_deviation(np.arange(len(cut)), np.minimum(width, _KS_SAMPLE)).tolist()
    cost = np.where(width > _KS_SAMPLE, width, 0).tolist()  # pairs left to score
    order = sorted(range(len(cut)), key=bound.__getitem__)  # stable: ties by xmin
    best, best_ks = -1, np.inf
    pos = 0
    while pos < len(order) and bound[order[pos]] <= best_ks:
        # One cutoff while no KS is known, then as many of the next ones
        # whose bounds do not exceed the best as one block of pairs holds.
        end, n_pairs = pos + 1, cost[order[pos]]
        while best >= 0 and end < len(order) and bound[order[end]] <= best_ks:
            n_pairs += cost[order[end]]
            if n_pairs > _KS_BLOCK_PAIRS:
                break
            end += 1
        batch, pos = order[pos:end], end
        ks = dict(zip(batch, map(bound.__getitem__, batch)))
        rows = np.array([r for r in batch if cost[r]], dtype=np.intp)
        ks.update(zip(rows.tolist(), max_deviation(rows, width[rows]).tolist()))
        for r in batch:
            if ks[r] < best_ks or (ks[r] == best_ks and r < best):
                best, best_ks = r, ks[r]

    return PowerLawFit(
        alpha=float(alpha[best]),
        xmin=int(distinct[cut[best]]),
        ks_statistic=best_ks,
        n_tail=int(n_tail[cut[best]]),
    )


def centrality_ccdf(table: CentralityTable) -> list[tuple[float, float]]:
    """(value, fraction of nodes with score >= value) per distinct value.

    Values ascend, the fractions are nonincreasing, and the first point is
    always 1.0.
    """
    if not table.scores:
        raise ValueError("ccdf of an empty score table")
    values = np.sort(np.array(list(table.scores.values()), dtype=np.float64))
    n = len(values)
    first = run_starts(values)
    return [(float(v), float(n - i) / n) for v, i in zip(values[first], first)]


def top_k(table: CentralityTable, k: int) -> list[NodeKey]:
    """First k of the ranking; all nodes when k exceeds the node count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(table.ranking[:k])
