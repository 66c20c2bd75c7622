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

Every analytic reads the integer index a HopGraph computes once when it is
built (hopgraph.GraphIndex): degrees are bincounts over its edge ids,
PageRank iterates over its id arrays, components walk a CSR adjacency over
node ids, and rankings are a stable argsort over the node ids, which are
already in sorted node order. None of them sorts or re-keys the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .hopgraph import HopGraph, NodeKey
from .model import AnalysisConfig, run_starts


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
    drops below config.pagerank_tol or max_iter is hit (converged=False).
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
    for iterations in range(1, config.pagerank_max_iter + 1):
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


def _adjacency(graph: HopGraph, mode: ComponentMode) -> tuple[list[int], list[int]]:
    """CSR adjacency over node ids: v's neighbors are nbrs[start[v]:start[v + 1]].

    Strong mode follows edge direction; weak mode also adds every edge
    reversed.
    """
    idx = graph.index
    src, dst = idx.src, idx.dst  # already in source order
    if mode is ComponentMode.WEAK:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        order = np.argsort(src)
        src, dst = src[order], dst[order]
    start = np.zeros(len(idx.nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(idx.nodes)), out=start[1:])
    return start.tolist(), dst.tolist()


def _strongly_connected(start: list[int], nbrs: list[int]) -> list[list[int]]:
    # Tarjan, iterative: the job graph can be deep enough to blow the
    # recursion limit on long career chains.
    n = len(start) - 1
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
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


def _weakly_connected(start: list[int], nbrs: list[int]) -> list[list[int]]:
    seen = [False] * (len(start) - 1)
    components = []
    for root in range(len(seen)):
        if seen[root]:
            continue
        comp = []
        queue = [root]
        seen[root] = True
        while queue:
            v = queue.pop()
            comp.append(v)
            for nxt in nbrs[start[v]:start[v + 1]]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        components.append(comp)
    return components


class ComponentMode(str, Enum):
    STRONG = "strong"
    WEAK = "weak"


def _components(graph: HopGraph, mode: ComponentMode) -> list[list[int]]:
    """The component partition as lists of node ids, in no set order."""
    find = _strongly_connected if mode is ComponentMode.STRONG else _weakly_connected
    return find(*_adjacency(graph, mode))


def connected_components(graph: HopGraph, mode: ComponentMode) -> list[list[NodeKey]]:
    """The component partition, largest first, nodes sorted within each."""
    comps = [sorted(c) for c in _components(graph, mode)]
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
    n = len(graph.nodes)
    scc = sorted(map(len, _components(graph, ComponentMode.STRONG)), reverse=True)
    wcc = sorted(map(len, _components(graph, ComponentMode.WEAK)), reverse=True)
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
