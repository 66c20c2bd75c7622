"""End-to-end acceptance checks.

Each test pins one externally stated guarantee of the pipeline, at its
stated tolerance and runtime budget; the conftest hook prints a PASS/FAIL
line per criterion at the end of the run.
"""

import json
import random
import time

import numpy as np
import pytest

from talentflow.cli import main
from talentflow.graphalgo import ComponentMode, connected_components, fit_power_law, weighted_pagerank
from talentflow.hopgraph import GraphLevel, HopGraph, build_graph
from talentflow.hops import extract_all_hops, extract_hops
from talentflow.ingest import filter_active, ingest_profiles
from talentflow.metrics import (
    CohortAxis,
    CorpusIndex,
    LevelGainLabel,
    LevelGainRecord,
    external_hop_fraction,
    level_gains,
    promotion_summary,
)
from talentflow.model import months_between
from talentflow.synthgen import GeneratorSpec, generate

from helpers import config, dm, random_profile
from test_graphalgo import (
    pagerank_dense_solve,
    preferential_attachment_indegrees,
    random_graph,
    sample_discrete_power_law,
    scc_oracle,
    wcc_oracle,
)
from test_hops import as_tuples, oracle_hops
from test_metrics import make_hop


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def check(self):
        assert time.perf_counter() - self.t0 < self.seconds


# 1. Promotion-summary arithmetic on the published reference counts.
def test_promotion_summary_reference_arithmetic():
    budget = Budget(1.0)
    from talentflow.hops import HopKind

    records = []
    for kind, label, n in [
        (HopKind.EXTERNAL, LevelGainLabel.PROMOTION, 4813),
        (HopKind.EXTERNAL, LevelGainLabel.DEMOTION, 1720),
        (HopKind.INTERNAL, LevelGainLabel.PROMOTION, 3891),
        (HopKind.INTERNAL, LevelGainLabel.DEMOTION, 387),
    ]:
        gain = 1.0 if label is LevelGainLabel.PROMOTION else -1.0
        rec = LevelGainRecord(
            hop=make_hop(kind), source_level_months=48.0,
            dest_level_months=48.0 + gain, gain_months=gain, label=label,
        )
        records.extend([rec] * n)

    s = promotion_summary(records)
    assert s.total == 10811
    assert s.p_promotion * 100 == pytest.approx(80.51, abs=0.01)
    assert s.p_promotion_given_internal * 100 == pytest.approx(90.95, abs=0.01)
    assert s.p_promotion_given_external * 100 == pytest.approx(73.67, abs=0.01)
    budget.check()


# 2. Hop extraction equals the brute-force consecutive-pair oracle.
def test_hop_extraction_matches_bruteforce():
    budget = Budget(10.0)
    rng = random.Random(20160630)
    curr = dm("2016-06")
    disagreements = 0
    for i in range(1000):
        p = random_profile(rng, f"u{i}", max_jobs=6)
        if as_tuples(extract_hops(p, curr)) != oracle_hops(p, curr):
            disagreements += 1
    assert disagreements == 0
    budget.check()


# 3. Weighted PageRank against a dense linear solve.
def test_pagerank_matches_dense_solve():
    budget = Budget(30.0)
    rng = random.Random(271828)
    tight = config("2016-06", pagerank_tol=1e-13, pagerank_max_iter=5000)
    default = config("2016-06")
    for _ in range(200):
        g, _n = random_graph(rng, max_nodes=20)
        table = weighted_pagerank(g, tight)
        expected = pagerank_dense_solve(g, tight.teleport_prob)
        linf = max(abs(table.scores[x] - expected[x]) for x in g.nodes)
        assert linf <= 1e-8
        assert abs(sum(table.scores.values()) - 1.0) <= 1e-9

        # Default config still conserves mass, and doubling every weight
        # moves no score by more than 1e-12.
        t_default = weighted_pagerank(g, default)
        assert abs(sum(t_default.scores.values()) - 1.0) <= 1e-9
        doubled = HopGraph(
            level=g.level, nodes=set(g.nodes), node_support=dict(g.node_support),
            edges={e: 2 * w for e, w in g.edges.items()},
        )
        t_doubled = weighted_pagerank(doubled, default)
        assert max(abs(t_default.scores[x] - t_doubled.scores[x]) for x in g.nodes) <= 1e-12
    budget.check()


# 4. SCC/WCC partitions against a transitive-closure oracle.
def test_components_match_closure_oracle():
    budget = Budget(30.0)
    rng = random.Random(31415)
    for _ in range(200):
        g, n = random_graph(rng, max_nodes=50, p_edge=0.06)
        sccs = connected_components(g, ComponentMode.STRONG)
        wccs = connected_components(g, ComponentMode.WEAK)
        assert {frozenset(c) for c in sccs} == scc_oracle(g)
        assert {frozenset(c) for c in wccs} == wcc_oracle(g)
        wcc_of = {x: i for i, comp in enumerate(wccs) for x in comp}
        for comp in sccs:
            assert len({wcc_of[x] for x in comp}) == 1
    budget.check()


# 5. Power-law exponent recovery, plus the scale-free qualitative check.
def test_power_law_recovery():
    budget = Budget(60.0)
    rng = np.random.default_rng(20162016)
    samples = sample_discrete_power_law(2.5, 10000, rng)
    fit = fit_power_law(samples.tolist())
    assert abs(fit.alpha - 2.5) <= 0.1

    # Preferential attachment: each newcomer cites 2 nodes chosen with
    # probability proportional to in-degree + 1.
    pa_fit = fit_power_law(preferential_attachment_indegrees())
    assert pa_fit.alpha > 2.0
    budget.check()


# 6. Cohort-propensity recovery on a 20,000-user generated corpus.
def test_cohort_propensity_recovery(tmp_path):
    budget = Budget(120.0)
    spec = GeneratorSpec(seed=2016, n_users=20000)
    result = generate(spec, tmp_path / "corpus.jsonl", tmp_path / "truth.json")
    truth = json.loads(result.truth_path.read_text())
    curve = truth["hop_propensity"]
    assert all(a > b for a, b in zip(curve, curve[1:]))  # monotone decreasing

    profiles, report = ingest_profiles(result.corpus_path)
    assert report.rejected_records == 0
    active = filter_active(profiles)
    cfg = config(truth["curr_date"], group_bin_width_years=truth["bin_width_years"])
    assert cfg.cohort_min_support == 100

    hops, _ = extract_all_hops(active, cfg)
    index = CorpusIndex.build(active, cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.WORK_EXP], index, {p.user_id: p for p in active}
    )
    cells = {spec_t[0].bin_lower: cell for spec_t, cell in stats.cohorts.items()}

    checked = suppressed_seen = 0
    for row in truth["work_exp_bins"]:
        support = row["external_hops"] + row["internal_hops"]
        cell = cells[float(row["lower_years"])]
        assert cell.support == support
        if support < 100:
            assert cell.suppressed
            assert cell.fraction is None
            suppressed_seen += 1
            continue
        assert not cell.suppressed
        assert abs(cell.fraction - row["realized_external_fraction"]) <= 0.05
        if support >= 1000:
            assert abs(cell.fraction - row["expected_external_fraction"]) <= 0.05
        checked += 1
    assert checked >= 4  # several populated bins actually exercised
    assert suppressed_seen >= 1  # the support gate fired somewhere
    budget.check()


# 7. Minimum-support gating and pruning monotonicity.
def test_min_support_gating(tmp_path):
    budget = Budget(30.0)
    spec = GeneratorSpec(seed=4242, n_users=4000)
    result = generate(spec, tmp_path / "corpus.jsonl", tmp_path / "truth.json")
    profiles, _ = ingest_profiles(result.corpus_path)
    active = filter_active(profiles)
    cfg = config(str(spec.curr_date))
    assert cfg.min_support == 10

    hops, _ = extract_all_hops(active, cfg)
    index = CorpusIndex.build(active, cfg)
    records = level_gains(hops, index)
    assert records

    # Independent recount of supporters straight from the raw profiles.
    def supporters(key):
        people = set()
        for p in active:
            if p.grad_date is None:
                continue
            for j in p.jobs:
                if j.org_key != key or not j.has_valid_period(cfg.curr_date):
                    continue
                if months_between(j.start, cfg.curr_date) < 0:
                    continue
                if months_between(p.grad_date, j.end_or(cfg.curr_date)) >= 0:
                    people.add(p.user_id)
        return len(people)

    endpoints = {r.hop.source.org_key for r in records}
    endpoints |= {r.hop.dest.org_key for r in records}
    for key in endpoints:
        assert supporters(key) >= 10

    for level in (GraphLevel.JOB, GraphLevel.ORG):
        previous = None
        for ms in (1, 2, 5, 10, 25, 50, 100, 500):
            g = build_graph(hops, level, config(str(spec.curr_date), min_support=ms),
                            profiles=active)
            size = (len(g.nodes), len(g.edges))
            if previous is not None:
                assert size[0] <= previous[0]
                assert size[1] <= previous[1]
            previous = size
    budget.check()


# 8. Bit-identical reports across repeated runs.
def test_report_all_determinism(tmp_path):
    budget = Budget(120.0)
    spec = GeneratorSpec(seed=808, n_users=1500)
    result = generate(spec, tmp_path / "corpus.jsonl", tmp_path / "truth.json")
    dir_a = tmp_path / "run_a"
    dir_b = tmp_path / "run_b"
    for out_dir in (dir_a, dir_b):
        code = main([
            "report-all", "--input", str(result.corpus_path),
            "--out-dir", str(out_dir), "--cohort-min-support", "30",
        ])
        assert code == 0
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b
    assert len(names_a) == 9
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    budget.check()
