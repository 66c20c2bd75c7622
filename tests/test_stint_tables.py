"""The columnar stint, hop and level-gain stages against object references.

The reference functions below are the per-object implementations that the
stint and hop tables replaced: each walks profiles through usable_jobs and
builds Hop and LevelGainRecord objects. The columnar versions must agree
with them exactly -- the same hops in the same order, the same index means,
cohort cells, records, stay bins, graphs and distribution bytes -- on
corpora with duplicate, overlapping, zero-gap, future-start and reversed
stints, gradless profiles, negative experience, one title at one
organization listed twice, prefix titles and non-ASCII labels.
"""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from itertools import chain, combinations
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import talentflow
from talentflow import model, reports
from talentflow.hopgraph import GraphLevel, HopGraph, build_graph
from talentflow.hops import (
    Hop,
    HopDiagnostics,
    HopKind,
    HopTable,
    classify_hop,
    extract_all_hops,
)
from talentflow.metrics import (
    CohortAxis,
    CohortCell,
    CohortSpec,
    CohortStats,
    CorpusIndex,
    LevelGainLabel,
    LevelGainRecord,
    LevelGainTable,
    StayBin,
    external_hop_fraction,
    job_age,
    job_age_of_jobkey,
    job_level,
    level_gains,
    promotion_by_stay,
    promotion_summary,
    work_experience,
)
from talentflow.model import (
    DateMonth,
    JobRecord,
    StintDrops,
    StintTable,
    UserProfile,
    months_between,
)
from talentflow.ingest import filter_active, ingest_profiles
from talentflow.reports import write_distributions, write_level_gain_hist
from talentflow.synthgen import GeneratorSpec, generate
from helpers import config, counting, usable_jobs


# --- reference implementations ---------------------------------------------

def ref_sort_key(curr_date):
    def key(j):
        return (j.start.ordinal, j.end_or(curr_date).ordinal, j.title, j.organization)

    return key


def ref_extract_hops(profile, curr_date, diag):
    jobs = sorted(usable_jobs(profile, curr_date, diag), key=ref_sort_key(curr_date))
    out = []
    for source, dest in zip(jobs, jobs[1:]):
        kind = classify_hop(source, dest, curr_date)
        if kind is None:
            continue
        out.append(Hop(profile.user_id, source, dest, kind,
                       months_between(source.start, source.end_or(curr_date))))
    return out


def ref_extract_all_hops(profiles, cfg):
    diag = HopDiagnostics()
    out = []
    for p in profiles:
        out.extend(ref_extract_hops(p, cfg.curr_date, diag))
    return out, diag


def ref_means(values_by_key):
    return {key: sum(values) / len(values) for key, values in values_by_key.items()}


def ref_index(profiles, cfg):
    wk_job, age_job, wk_org = defaultdict(list), defaultdict(list), defaultdict(list)
    supporters = defaultdict(set)
    skills = {}
    drops = StintDrops()
    negative = 0
    for p in profiles:
        skills[p.user_id] = len(p.skills)
        for j in usable_jobs(p, cfg.curr_date, drops):
            age_job[j.key].append(job_age(j, cfg))
            wk = work_experience(p, j, cfg.curr_date)
            if wk is None:
                if p.grad_date is not None:
                    negative += 1
                continue
            wk_job[j.key].append(wk)
            wk_org[j.org_key].append(wk)
            supporters[j.org_key].add(p.user_id)
    return CorpusIndex(
        config=cfg,
        wk_exp_by_jobkey=ref_means(wk_job),
        age_by_jobkey=ref_means(age_job),
        wk_exp_by_orgjob=ref_means(wk_org),
        support_by_orgjob={key: len(users) for key, users in supporters.items()},
        skill_count_by_user=skills,
        negative_experience_jobs=negative,
        future_jobs=drops.future_jobs,
        invalid_period_jobs=drops.invalid_period_jobs,
    )


def ref_bin_index(hop, axis, index, profile):
    width = index.config.group_bin_width_years
    if axis is CohortAxis.SKILL_COUNT:
        return int(index.skill_count_by_user.get(hop.user_id, 0) // width)
    if axis is CohortAxis.WORK_EXP:
        months = work_experience(profile, hop.source, index.config.curr_date)
        return None if months is None else int((months / 12.0) // width)
    months = job_age_of_jobkey(hop.source.key, index)
    return None if months is None else int((months / 12.0) // width)


def ref_external_hop_fraction(hops, axes, index, profiles_by_id):
    counts = defaultdict(lambda: [0, 0])
    for hop in hops:
        profile = profiles_by_id.get(hop.user_id)
        if profile is None:
            continue
        bins = tuple(ref_bin_index(hop, axis, index, profile) for axis in axes)
        if None in bins:
            continue
        counts[bins][0 if hop.kind is HopKind.EXTERNAL else 1] += 1
    width = index.config.group_bin_width_years
    cohorts = {}
    for bins, (ext, internal) in counts.items():
        support = ext + internal
        suppressed = support < index.config.cohort_min_support
        key = tuple(CohortSpec(axis, float(k * width), float((k + 1) * width))
                    for axis, k in zip(axes, bins))
        cohorts[key] = CohortCell(ext, internal, None if suppressed else ext / support,
                                  support, suppressed)
    return CohortStats(axes=tuple(axes), cohorts=cohorts)


def ref_level_gains(hops, index):
    out = []
    for h in hops:
        src = job_level(h.source.org_key, index)
        dst = job_level(h.dest.org_key, index)
        if src is None or dst is None:
            continue
        gain = dst - src
        label = (LevelGainLabel.PROMOTION if gain > 0
                 else LevelGainLabel.DEMOTION if gain < 0 else LevelGainLabel.NEUTRAL)
        out.append(LevelGainRecord(h, src, dst, gain, label))
    return out


def ref_promotion_counts(records):
    return Counter((r.hop.kind, r.label) for r in records)


def ref_promotion_by_stay(records, width, cfg):
    grouped = defaultdict(lambda: [0, 0])
    for r in records:
        cell = grouped[(r.hop.duration_of_stay_months // width, r.hop.kind)]
        cell[0] += 1
        cell[1] += r.label is LevelGainLabel.PROMOTION
    bins = []
    for (k, kind), (n, promos) in sorted(grouped.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1].value)):
        suppressed = n < cfg.cohort_min_support
        bins.append(StayBin(k * width, (k + 1) * width, kind, n, promos,
                            None if suppressed else promos / n, suppressed))
    return bins


def ref_build_graph(hops, level, cfg, profiles=None, distinct_users=False):
    if level is GraphLevel.ORG:
        attr = "organization"
        hops = [h for h in hops if h.kind is HopKind.EXTERNAL]
    else:
        attr = "key"
        hops = list(hops)
    ends = (f"source.{attr}", f"dest.{attr}")
    if distinct_users:
        moves = dict.fromkeys(map(attrgetter(*ends, "user_id"), hops))
        weights = Counter(map(itemgetter(0, 1), moves))
    else:
        weights = Counter(map(attrgetter(*ends), hops))
    nodes = set(chain.from_iterable(weights))
    holders = defaultdict(set)
    if profiles is None:
        for u, v, user in map(attrgetter(*ends, "user_id"), hops):
            holders[u].add(user)
            holders[v].add(user)
    else:
        for p in profiles:
            for j in usable_jobs(p, cfg.curr_date):
                holders[attrgetter(attr)(j)].add(p.user_id)
    support = {n: len(holders.get(n, ())) for n in nodes}
    kept = frozenset(n for n in nodes if support[n] >= cfg.min_support)
    return HopGraph(level=level, nodes=kept, node_support={n: support[n] for n in kept},
                    edges={e: w for e, w in weights.items() if e[0] in kept and e[1] in kept})


def ref_histogram(values, width):
    counts = Counter(int(v // width) for v in values)
    return [(k * width, (k + 1) * width, counts[k]) for k in sorted(counts)]


def ref_distribution_rows(profiles, cfg):
    wk_years, age_years = [], []
    for p in profiles:
        for j in usable_jobs(p, cfg.curr_date):
            age_years.append(job_age(j, cfg) / 12.0)
            wk = work_experience(p, j, cfg.curr_date)
            if wk is not None:
                wk_years.append(wk / 12.0)
    rows = [["skill_count", *r] for r in ref_histogram([len(p.skills) for p in profiles], 5)]
    rows += [["work_experience_years", *r] for r in ref_histogram(wk_years, 1.0)]
    rows += [["job_age_years", *r] for r in ref_histogram(age_years, 1.0)]
    return rows


def ref_level_gain_hist_rows(records):
    counts = Counter((r.hop.kind.value, int(r.gain_months // 12)) for r in records)
    return [[kind, k * 12, (k + 1) * 12, n] for (kind, k), n in sorted(counts.items())]


# --- corpora ----------------------------------------------------------------

TITLES = ["analyst", "analyst ii", "engineer", "директор", "señor lead"]
ORGS = {"acme": "fin", "acmé": "fin", "globex": "tech", "initech": "tech"}


def month(m):
    return DateMonth(2000 + m // 12, m % 12 + 1)


@st.composite
def jobs_st(draw):
    org = draw(st.sampled_from(sorted(ORGS)))
    # Now and then an industry that disagrees with the organization's.
    industry = draw(st.sampled_from([ORGS[org], ORGS[org], "other"]))
    # Few distinct months, so that stints often tie on (start, end) and the
    # (title, organization) order decides which of them comes last.
    start = draw(st.integers(0, 24))
    end = draw(st.one_of(
        st.none(),
        st.sampled_from([0, 0, 1, 6, 12]).map(lambda d: month(start + d)),
        st.integers(1, 12).map(lambda d: month(start - d)),  # reversed
    ))
    return JobRecord(draw(st.sampled_from(TITLES)), org, industry, month(start), end)


@st.composite
def profile_st(draw, user_id):
    pool = draw(st.lists(jobs_st(), min_size=1, max_size=5))
    # Drawing from a small pool repeats stints: duplicates and overlaps.
    jobs = draw(st.lists(st.sampled_from(pool), max_size=7))
    grad = draw(st.one_of(st.none(), st.integers(-24, 40).map(month)))
    skills = draw(st.frozensets(st.sampled_from("abcdefghijkl"), min_size=1, max_size=12))
    return UserProfile(user_id, grad, skills, 1, tuple(jobs))


@st.composite
def corpus_st(draw):
    n = draw(st.integers(0, 8))
    ids = [draw(st.sampled_from([f"u{i}", f"u{i}", "shared"])) for i in range(n)]
    return [draw(profile_st(uid)) for uid in ids]


def cfg_st():
    return st.builds(
        lambda curr, ms, cms, w: config(str(month(curr)), min_support=ms,
                                        cohort_min_support=cms, group_bin_width_years=w),
        st.integers(20, 60), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
    )


AXES = [[]] + [[a] for a in CohortAxis] + [list(c) for c in combinations(CohortAxis, 2)]
AXES += [[CohortAxis.JOB_AGE, CohortAxis.WORK_EXP]]


def rows_of(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def as_cells(rows):
    return [[reports.fmt(c) for c in row] for row in rows]


# --- equality with the references --------------------------------------------

@given(corpus_st(), cfg_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_columnar_stages_equal_the_references(profiles, cfg, data):
    want_hops, want_diag = ref_extract_all_hops(profiles, cfg)
    stints = StintTable.of(profiles, cfg.curr_date)
    for source in (profiles, stints):
        got_hops, got_diag = extract_all_hops(source, cfg)
        assert got_hops == want_hops
        assert list(got_hops) == want_hops
        assert got_diag == want_diag
        assert CorpusIndex.build(source, cfg) == ref_index(profiles, cfg)
    hops, _ = extract_all_hops(stints, cfg)
    index = CorpusIndex.build(stints, cfg)

    # A profiles_by_id that omits some users.
    kept_ids = data.draw(st.sets(st.sampled_from([p.user_id for p in profiles] or ["x"])))
    by_id = {p.user_id: p for p in profiles if p.user_id in kept_ids}
    for axes in AXES:
        want = ref_external_hop_fraction(want_hops, axes, index, by_id)
        assert external_hop_fraction(hops, axes, index, by_id) == want
        assert external_hop_fraction(want_hops, axes, index, by_id) == want

    want_records = ref_level_gains(want_hops, index)
    for got_records in (level_gains(hops, index), level_gains(want_hops, index)):
        assert got_records == want_records
        summary = promotion_summary(got_records)
        counts = ref_promotion_counts(want_records)
        assert (summary.external_promotions, summary.internal_demotions) == (
            counts[(HopKind.EXTERNAL, LevelGainLabel.PROMOTION)],
            counts[(HopKind.INTERNAL, LevelGainLabel.DEMOTION)],
        )
        assert summary.total == len(want_records)
        for width in (1, 7, 12):
            want_bins = ref_promotion_by_stay(want_records, width, cfg)
            assert promotion_by_stay(got_records, width, cfg) == want_bins
            assert promotion_by_stay(want_records, width, cfg) == want_bins

    for level in GraphLevel:
        for distinct in (False, True):
            want = ref_build_graph(want_hops, level, cfg, None, distinct)
            assert build_graph(hops, level, cfg, None, distinct) == want
            assert build_graph(want_hops, level, cfg, None, distinct) == want
            want = ref_build_graph(want_hops, level, cfg, profiles, distinct)
            for holders in (profiles, stints, list(reversed(profiles))):
                assert build_graph(hops, level, cfg, holders, distinct) == want
            assert build_graph(want_hops, level, cfg, profiles, distinct) == want


@given(corpus_st(), cfg_st())
@settings(max_examples=60, deadline=None)
def test_histograms_equal_the_references(tmp_path_factory, profiles, cfg):
    tmp = tmp_path_factory.mktemp("hist")
    want = as_cells(ref_distribution_rows(profiles, cfg))
    assert rows_of(write_distributions(profiles, cfg, tmp / "d.csv")) == want
    stints = StintTable.of(profiles, cfg.curr_date)
    assert rows_of(write_distributions(stints, cfg, tmp / "t.csv")) == want
    hops, _ = extract_all_hops(stints, cfg)
    records = level_gains(hops, CorpusIndex.build(stints, cfg))
    want = as_cells(ref_level_gain_hist_rows(list(records)))
    assert rows_of(write_level_gain_hist(records, tmp / "g.csv")) == want
    assert rows_of(write_level_gain_hist(list(records), tmp / "l.csv")) == want


def hand_hop(kind, stay, user="u1", src_title="a", dst_org="y"):
    src = JobRecord(src_title, "x", "i", month(10), month(10 + stay) if stay >= 0 else None)
    dst = JobRecord("b", dst_org, "i", month(40), None)
    return Hop(user, src, dst, kind, stay)


def hand_record(kind, gain, stay, user="u1"):
    label = (LevelGainLabel.PROMOTION if gain > 0
             else LevelGainLabel.DEMOTION if gain < 0 else LevelGainLabel.NEUTRAL)
    return LevelGainRecord(hand_hop(kind, stay, user), 48.0, 48.0 + gain, float(gain), label)


def test_hand_built_lists_equal_the_references(tmp_path):
    # Kinds and stays as given, even where they disagree with the jobs.
    cfg = config("2004-01", cohort_min_support=2, min_support=1)
    hops = [
        hand_hop(HopKind.EXTERNAL, 5), hand_hop(HopKind.INTERNAL, 17, "u2"),
        hand_hop(HopKind.EXTERNAL, -1, "u3"), hand_hop(HopKind.INTERNAL, 0, "u1", "c", "x"),
        hand_hop(HopKind.EXTERNAL, 30, "u2", "a", "x"),
    ]
    profiles = [UserProfile(u, month(0), frozenset("ab"), 1, ()) for u in ("u1", "u3")]
    by_id = {p.user_id: p for p in profiles}
    index = CorpusIndex.build(profiles, cfg)
    for axes in AXES:
        assert (external_hop_fraction(hops, axes, index, by_id)
                == ref_external_hop_fraction(hops, axes, index, by_id))
    for level in GraphLevel:
        for distinct in (False, True):
            assert (build_graph(hops, level, cfg, None, distinct)
                    == ref_build_graph(hops, level, cfg, None, distinct))
    records = [hand_record(HopKind.EXTERNAL, 30, 4), hand_record(HopKind.INTERNAL, -30, 18),
               hand_record(HopKind.INTERNAL, 0, 18), hand_record(HopKind.EXTERNAL, 1, -13),
               hand_record(HopKind.EXTERNAL, 5, 23)]
    table = LevelGainTable.of(records)
    assert table == records and list(table) == records and table[-1] == records[-1]
    assert promotion_by_stay(records, 12, cfg) == ref_promotion_by_stay(records, 12, cfg)
    assert (rows_of(write_level_gain_hist(records, tmp_path / "g.csv"))
            == as_cells(ref_level_gain_hist_rows(records)))
    assert HopTable.of(hops) == hops and HopTable.of(hops)[1:3] == hops[1:3]


@given(corpus_st(), cfg_st())
@settings(max_examples=80, deadline=None)
def test_adjacent_pairs_classify_as_classify_hop(profiles, cfg):
    hops, _ = extract_all_hops(profiles, cfg)
    want = Counter()
    for p in profiles:
        jobs = sorted(usable_jobs(p, cfg.curr_date), key=ref_sort_key(cfg.curr_date))
        for a, b in zip(jobs, jobs[1:]):
            kind = classify_hop(a, b, cfg.curr_date)
            if kind is not None:
                want[p.user_id, a, b, kind] += 1
    assert Counter((h.user_id, h.source, h.dest, h.kind) for h in hops) == want


@pytest.mark.parametrize("reverse", [False, True])
def test_equal_periods_order_by_title_then_organization(reverse):
    # "analyst" < "analyst ii" < "analyst ii" at "acmé", whatever the listing
    # order: the last of the tied stints is the source of the next hop.
    tied = [JobRecord("analyst ii", "acmé", "fin", month(0), month(6)),
            JobRecord("analyst", "acme", "fin", month(0), month(6)),
            JobRecord("analyst ii", "acme", "fin", month(0), month(6))]
    later = JobRecord("lead", "globex", "tech", month(6), None)
    jobs = tied[::-1] + [later] if reverse else tied + [later]
    p = UserProfile("u", None, frozenset("a"), 1, tuple(jobs))
    cfg = config("2016-06")
    (hop,) = extract_all_hops([p], cfg)[0]
    assert (hop.source, hop.dest) == (tied[0], later)
    assert list(extract_all_hops([p], cfg)[0]) == ref_extract_all_hops([p], cfg)[0]


def profile_line(p):
    def stint(j):
        return {"title": j.title, "organization": j.organization, "industry": j.industry,
                "start": str(j.start), "end": None if j.end is None else str(j.end)}

    grad = None if p.grad_date is None else str(p.grad_date)
    return json.dumps({"user_id": p.user_id, "grad_date": grad,
                       "education_count": p.education_entries, "skills": sorted(p.skills),
                       "jobs": [stint(j) for j in p.jobs]})


@given(corpus_st(), cfg_st())
@settings(max_examples=60, deadline=None)
def test_stint_keys_are_coded_in_sorted_order(tmp_path_factory, profiles, cfg):
    path = tmp_path_factory.mktemp("keys") / "corpus.jsonl"
    path.write_text("".join(profile_line(p) + "\n" for p in profiles), encoding="utf-8")
    ingested, _ = ingest_profiles(path)
    hops, _ = extract_all_hops(profiles, cfg)
    tables = [StintTable.of(ingested, cfg.curr_date), StintTable.of(profiles, cfg.curr_date),
              HopTable.of(list(hops)).stints]
    for stints in tables:
        jobs = [stints.job(r) for r in range(len(stints))]
        for keys, codes, key in ((stints.job_keys, stints.job_key, attrgetter("key")),
                                 (stints.org_keys, stints.org_key, attrgetter("org_key")),
                                 (stints.orgs, stints.org, attrgetter("organization"))):
            assert list(keys) == sorted(set(map(key, jobs)))  # strictly increasing, all used
            assert [keys[k] for k in codes.tolist()] == list(map(key, jobs))


def test_empty_result_and_read_only_columns():
    cfg = config("2016-06")
    hops, diag = extract_all_hops([], cfg)
    assert hops == [] and len(hops) == 0 and diag == StintDrops()
    assert level_gains(hops, CorpusIndex.build([], cfg)) == []
    p = UserProfile("u", None, frozenset("a"), 1, (JobRecord("t", "o", "i", month(0), month(5)),
                                                    JobRecord("s", "p", "i", month(6), None)))
    stints = StintTable.of([p], cfg.curr_date)
    hops, _ = extract_all_hops(stints, cfg)
    records = level_gains(hops, CorpusIndex.build(stints, config("2016-06", min_support=1)))
    for a in (stints.start, stints.end, stints.job_key, stints.work_exp, hops.src, hops.stay,
              records.gain, records.label):
        with pytest.raises(ValueError):
            a[0] = 1
    with pytest.raises(ValueError, match="analysis date"):
        extract_all_hops(stints, config("2015-06"))


def test_hop_and_level_gain_tables_are_frozen():
    cfg = config("2016-06", min_support=1)
    p = UserProfile("u", month(0), frozenset("a"), 1, (JobRecord("t", "o", "i", month(1), month(5)),
                                                       JobRecord("s", "p", "i", month(6), None)))
    hops, _ = extract_all_hops([p], cfg)
    records = level_gains(hops, CorpusIndex.build([p], cfg))
    assert len(records) == 1
    for table in (hops, HopTable.of(list(hops)), records, LevelGainTable.of(list(records))):
        for f in dataclasses.fields(table):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, f.name, getattr(table, f.name))
            value = getattr(table, f.name)
            assert not isinstance(value, np.ndarray) or not value.flags.writeable


def count_constructions(monkeypatch, calls, *classes):
    for cls in classes:
        monkeypatch.setattr(cls, "__init__", counting(calls, cls.__name__, cls.__init__))


def test_write_all_reports_reads_each_profile_once_and_builds_no_objects(tmp_path, monkeypatch):
    # Ingest fills the profile table's columns and the stint rule runs once,
    # as one mask over all of them: no stage builds a profile, job, hop or
    # level-gain object.
    spec = GeneratorSpec(seed=5, n_users=300)
    generate(spec, tmp_path / "c.jsonl", tmp_path / "t.json")
    calls = Counter()
    monkeypatch.setattr(model, "usable_stints", counting(calls, "usable_stints",
                                                         model.usable_stints))
    count_constructions(monkeypatch, calls, UserProfile, JobRecord, Hop, LevelGainRecord)
    profiles, _ = ingest_profiles(tmp_path / "c.jsonl")
    drops = StintDrops()
    reports.write_all_reports(profiles, config(str(spec.curr_date)), tmp_path / "out", drops)
    assert calls == Counter(usable_stints=1)
    assert len(filter_active(profiles)) > 0 and drops.future_jobs == 0


def test_graph_sweep_support_reads_the_hops_own_stints(tmp_path, monkeypatch):
    # graph_sweep's call shape: hops and profiles= from the same active table.
    spec = GeneratorSpec(seed=5, n_users=300)
    generate(spec, tmp_path / "c.jsonl", tmp_path / "t.json")
    active = filter_active(ingest_profiles(tmp_path / "c.jsonl")[0])
    cfg = config(str(spec.curr_date))
    hops, _ = extract_all_hops(active, cfg)
    want = {level: build_graph(hops, level, cfg, profiles=list(active)) for level in GraphLevel}
    calls = Counter()
    count_constructions(monkeypatch, calls, StintTable, UserProfile, JobRecord)
    for level in GraphLevel:
        assert build_graph(hops, level, cfg, profiles=active) == want[level]
    assert calls == Counter()


NUMPY_MA_PROBE = """
import sys, tempfile
from pathlib import Path

import numpy

preloaded = "numpy.ma" in sys.modules  # numpy 1.x imports it eagerly
from talentflow import reports
from talentflow.ingest import ingest_profiles
from talentflow.model import AnalysisConfig
from talentflow.synthgen import GeneratorSpec, generate

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    spec = GeneratorSpec(seed=5, n_users=300)
    generate(spec, tmp / "c.jsonl", tmp / "t.json")
    profiles, _ = ingest_profiles(tmp / "c.jsonl")
    reports.write_all_reports(profiles, AnalysisConfig(curr_date=spec.curr_date), tmp / "out")
print(preloaded, "numpy.ma" in sys.modules)
"""


def test_write_all_reports_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on first call, about 2 MB of peak memory.
    src = str(Path(talentflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    preloaded, loaded = out.stdout.split()
    assert loaded == preloaded
