import random

import pytest
from hypothesis import given, settings, strategies as st

from talentflow.hops import Hop, HopKind, extract_all_hops
from talentflow.metrics import (
    CohortAxis,
    CorpusIndex,
    FutureJobError,
    LevelGainLabel,
    external_hop_fraction,
    job_age,
    job_age_of_jobkey,
    job_level,
    level_gain,
    promotion_by_stay,
    promotion_summary,
    work_experience,
    work_experience_of_jobkey,
)
from talentflow.model import JobKey, OrgJobKey, months_between
from helpers import config, job, profile, random_profile, usable_jobs

CFG = config("2016-06")


def make_hop(kind, stay=18, user="u1"):
    src = job("a", "x", "i", "2010-01", "2011-07")
    dst = job("b", "y" if kind is HopKind.EXTERNAL else "x", "i", "2011-07", "2012-07")
    return Hop(user_id=user, source=src, dest=dst, kind=kind,
               duration_of_stay_months=stay)


def make_record(kind, gain, stay=18):
    if gain > 0:
        label = LevelGainLabel.PROMOTION
    elif gain < 0:
        label = LevelGainLabel.DEMOTION
    else:
        label = LevelGainLabel.NEUTRAL
    from talentflow.metrics import LevelGainRecord

    return LevelGainRecord(
        hop=make_hop(kind, stay=stay),
        source_level_months=48.0,
        dest_level_months=48.0 + gain,
        gain_months=float(gain),
        label=label,
    )


# --- work experience / job age ------------------------------------------------

def test_work_experience_basic():
    p = profile(grad="2010-06", jobs=[job("t", "o", "i", "2011-01", "2015-06")])
    assert work_experience(p, p.jobs[0], CFG.curr_date) == 60


def test_work_experience_missing_grad():
    p = profile(grad=None, jobs=[job("t", "o", "i", "2011-01", "2015-06")])
    assert work_experience(p, p.jobs[0], CFG.curr_date) is None


def test_work_experience_negative_is_undefined():
    p = profile(grad="2016-01", jobs=[job("t", "o", "i", "2013-01", "2014-01")])
    assert work_experience(p, p.jobs[0], CFG.curr_date) is None


def test_work_experience_open_job_uses_curr_date():
    p = profile(grad="2010-06", jobs=[job("t", "o", "i", "2011-01")])
    assert work_experience(p, p.jobs[0], CFG.curr_date) == 72


def test_jobkey_mean_over_instances():
    ps = [
        profile("u1", grad="2010-01", jobs=[job("t", "o1", "i", "2010-01", "2012-01")]),
        profile("u2", grad="2010-01", jobs=[job("t", "o2", "i", "2010-01", "2013-01")]),
    ]
    index = CorpusIndex.build(ps, CFG)
    assert work_experience_of_jobkey(JobKey("t", "i"), index) == 30.0


def test_jobkey_mean_singleton():
    ps = [profile("u1", grad="2010-01", jobs=[job("t", "o", "i", "2010-01", "2015-01")])]
    index = CorpusIndex.build(ps, CFG)
    assert work_experience_of_jobkey(JobKey("t", "i"), index) == 60.0


def test_jobkey_no_support():
    index = CorpusIndex.build([], CFG)
    assert work_experience_of_jobkey(JobKey("t", "i"), index) is None


def test_job_age_examples():
    assert job_age(job("t", "o", "i", "2014-06", "2015-06"), CFG) == 24
    assert job_age(job("t", "o", "i", "2016-06"), CFG) == 0
    with pytest.raises(FutureJobError):
        job_age(job("t", "o", "i", "2017-01"), CFG)


@pytest.mark.parametrize("future", [
    job("b", "y", "i", "2017-01", "2018-01"),  # closed, starts after curr_date
    job("b", "y", "i", "2018-01", "2017-01"),  # also ends before it starts
])
def test_future_start_yields_no_hop_and_is_counted_once(future):
    p = profile(grad="2005-01", jobs=[job("a", "x", "i", "2012-01", "2013-01"), future])
    hops, diag = extract_all_hops([p], CFG)
    index = CorpusIndex.build([p], CFG)
    assert hops == []
    assert (diag.future_jobs, diag.invalid_period_jobs) == (1, 0)
    assert (index.future_jobs, index.invalid_period_jobs) == (1, 0)


def test_job_age_jobkey_mean_over_instances():
    ps = [
        profile("u1", jobs=[job("t", "o1", "i", "2014-06", "2015-06")]),
        profile("u2", jobs=[job("t", "o2", "i", "2012-06", "2013-06")]),
    ]
    index = CorpusIndex.build(ps, CFG)
    assert job_age_of_jobkey(JobKey("t", "i"), index) == (24 + 48) / 2
    assert job_age_of_jobkey(JobKey("nope", "i"), index) is None


# --- job level and gating ------------------------------------------------------

def level_holders(n, months=48, title="t", org="o"):
    # n people, each graduating `months` before their single job ends
    out = []
    for i in range(n):
        out.append(
            profile(
                f"h{i}", grad="2008-01",
                jobs=[job(title, org, "i", "2008-06",
                          f"{2008 + (months // 12):04d}-{(months % 12) or 12:02d}")],
            )
        )
    return out


def test_job_level_mean_and_support():
    ps = [
        profile(f"u{i}", grad="2010-01", jobs=[job("t", "o", "i", "2010-01", "2014-01")])
        for i in range(10)
    ]
    index = CorpusIndex.build(ps, CFG)
    assert job_level(OrgJobKey("t", "o"), index) == 48.0


def test_job_level_under_support_is_none():
    ps = [
        profile(f"u{i}", grad="2010-01", jobs=[job("t", "o", "i", "2010-01", "2014-01")])
        for i in range(9)
    ]
    index = CorpusIndex.build(ps, CFG)
    assert job_level(OrgJobKey("t", "o"), index) is None


def job_level_oracle(profiles, key, cfg):
    # Full scan from raw records, independent of CorpusIndex.
    values = []
    people = set()
    for p in profiles:
        if p.grad_date is None:
            continue
        for j in p.jobs:
            if j.title != key.title or j.organization != key.organization:
                continue
            end = j.end if j.end is not None else cfg.curr_date
            if months_between(j.start, end) < 0 or months_between(j.start, cfg.curr_date) < 0:
                continue
            wk = months_between(p.grad_date, end)
            if wk < 0:
                continue
            values.append(wk)
            people.add(p.user_id)
    if len(people) < cfg.min_support or not values:
        return None
    return sum(values) / len(values)


def test_job_level_matches_full_scan_oracle():
    rng = random.Random(77)
    cfg = config("2016-06", min_support=2)
    profiles = [random_profile(rng, f"u{i}") for i in range(400)]
    index = CorpusIndex.build(profiles, cfg)
    keys = set(index.wk_exp_by_orgjob) | {OrgJobKey("never", "seen")}
    for key in keys:
        assert job_level(key, index) == job_level_oracle(profiles, key, cfg)


def test_job_level_invariant_under_corpus_permutation():
    rng = random.Random(3)
    cfg = config("2016-06", min_support=2)
    profiles = [random_profile(rng, f"u{i}") for i in range(60)]
    index1 = CorpusIndex.build(profiles, cfg)
    shuffled = list(profiles)
    rng.shuffle(shuffled)
    index2 = CorpusIndex.build(shuffled, cfg)
    for key in index1.wk_exp_by_orgjob:
        assert job_level(key, index1) == job_level(key, index2)


# --- level gain -----------------------------------------------------------------

def test_level_gain_signs():
    low = level_holders(10, title="junior", org="a")
    high = [
        profile(f"g{i}", grad="2005-01", jobs=[job("senior", "b", "i", "2005-06", "2012-01")])
        for i in range(10)
    ]
    ps = low + high
    index = CorpusIndex.build(ps, CFG)
    up = Hop("u", low[0].jobs[0], high[0].jobs[0], HopKind.EXTERNAL, 12)
    down = Hop("u", high[0].jobs[0], low[0].jobs[0], HopKind.EXTERNAL, 12)
    up_rec = level_gain(up, index)
    down_rec = level_gain(down, index)
    assert up_rec.label is LevelGainLabel.PROMOTION
    assert down_rec.label is LevelGainLabel.DEMOTION
    assert up_rec.gain_months == -down_rec.gain_months


def test_level_gain_unsupported_endpoint():
    ps = level_holders(10)
    index = CorpusIndex.build(ps, CFG)
    h = Hop("u", ps[0].jobs[0], job("rare", "q", "i", "2010-01", "2011-01"),
            HopKind.EXTERNAL, 12)
    assert level_gain(h, index) is None


def test_equal_levels_neutral():
    a = level_holders(10, title="t1", org="a")
    b = level_holders(10, title="t2", org="b")
    index = CorpusIndex.build(a + b, CFG)
    h = Hop("u", a[0].jobs[0], b[0].jobs[0], HopKind.EXTERNAL, 12)
    assert level_gain(h, index).label is LevelGainLabel.NEUTRAL


# --- promotion summary ------------------------------------------------------------

def test_promotion_summary_counts_and_probabilities():
    records = (
        [make_record(HopKind.EXTERNAL, +1)] * 3
        + [make_record(HopKind.EXTERNAL, -1)] * 1
        + [make_record(HopKind.INTERNAL, +1)] * 5
        + [make_record(HopKind.INTERNAL, -1)] * 1
    )
    s = promotion_summary(records)
    assert (s.external_promotions, s.external_demotions) == (3, 1)
    assert (s.internal_promotions, s.internal_demotions) == (5, 1)
    assert s.p_promotion == 8 / 10
    assert s.p_promotion_given_internal == 5 / 6
    assert s.p_promotion_given_external == 3 / 4


def test_promotion_summary_all_promotions():
    s = promotion_summary([make_record(HopKind.INTERNAL, +1)] * 4)
    assert s.p_promotion == 1.0
    assert s.p_promotion_given_internal == 1.0
    assert s.p_promotion_given_external is None


def test_promotion_summary_empty():
    s = promotion_summary([])
    assert s.total == 0
    assert s.p_promotion is None


@given(
    st.lists(
        st.tuples(
            st.sampled_from([HopKind.EXTERNAL, HopKind.INTERNAL]),
            st.sampled_from([-1, 1]),
        ),
        max_size=60,
    )
)
def test_promotion_probability_is_weighted_average(pairs):
    records = [make_record(kind, gain) for kind, gain in pairs]
    s = promotion_summary(records)
    assert s.total == len(records)
    assert (
        s.external_promotions + s.external_demotions + s.internal_promotions
        + s.internal_demotions == len(records)
    )
    if s.total:
        weighted = 0.0
        if s.internal_total:
            weighted += s.p_promotion_given_internal * s.internal_total
        if s.external_total:
            weighted += s.p_promotion_given_external * s.external_total
        assert abs(weighted / s.total - s.p_promotion) < 1e-12
        assert 0.0 <= s.p_promotion <= 1.0


# --- cohorts -----------------------------------------------------------------------

def cohort_corpus():
    # Two users: one young (12 months exp at hop), one senior (120 months).
    young = profile(
        "young", grad="2010-01", skills=("a", "b"),
        jobs=[
            job("t1", "x", "i", "2010-01", "2011-01"),
            job("t2", "y", "i", "2011-01", "2012-01"),
        ],
    )
    senior = profile(
        "senior", grad="2002-01", skills=("a",),
        jobs=[
            job("t1", "x", "i", "2010-01", "2012-01"),
            job("t3", "x", "i", "2012-01", "2014-01"),
        ],
    )
    return [young, senior]


def test_external_hop_fraction_small_case():
    cfg = config("2016-06", cohort_min_support=1)
    profiles = cohort_corpus()
    hops, _ = extract_all_hops(profiles, cfg)
    index = CorpusIndex.build(profiles, cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.WORK_EXP], index, {p.user_id: p for p in profiles}
    )
    cells = {spec[0].bin_lower: cell for spec, cell in stats.cohorts.items()}
    assert cells[0.0].external_hops == 1  # young, 12 months = bin [0,5)
    assert cells[0.0].fraction == 1.0
    assert cells[10.0].internal_hops == 1  # senior, 120 months = bin [10,15)
    assert cells[10.0].fraction == 0.0


def test_suppression_below_min_support():
    cfg = config("2016-06", cohort_min_support=100)
    profiles = cohort_corpus()
    hops, _ = extract_all_hops(profiles, cfg)
    index = CorpusIndex.build(profiles, cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.WORK_EXP], index, {p.user_id: p for p in profiles}
    )
    for cell in stats.cohorts.values():
        assert cell.suppressed
        assert cell.fraction is None


def test_fraction_formula_three_external_one_internal():
    cfg = config("2016-06", cohort_min_support=1)
    hops = [make_hop(HopKind.EXTERNAL, user=f"e{i}") for i in range(3)]
    hops.append(make_hop(HopKind.INTERNAL, user="i0"))
    profiles = [
        profile(h.user_id, grad="2009-01", skills=("s",), jobs=[h.source, h.dest])
        for h in hops
    ]
    index = CorpusIndex.build(profiles, cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.SKILL_COUNT], index, {p.user_id: p for p in profiles}
    )
    (cell,) = stats.cohorts.values()
    assert cell.fraction == 0.75
    assert cell.support == 4


def test_undefined_work_exp_excluded_from_work_exp_cohorts():
    cfg = config("2016-06", cohort_min_support=1)
    gradless = profile(
        "ng", grad=None,
        jobs=[job("t1", "x", "i", "2010-01", "2011-01"),
              job("t2", "y", "i", "2011-01", "2012-01")],
    )
    hops, _ = extract_all_hops([gradless], cfg)
    assert len(hops) == 1
    index = CorpusIndex.build([gradless], cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.WORK_EXP], index, {"ng": gradless}
    )
    assert stats.cohorts == {}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cohort_conservation(seed):
    rng = random.Random(seed)
    cfg = config("2016-06", cohort_min_support=3)
    profiles = [random_profile(rng, f"u{i}", allow_invalid=False) for i in range(30)]
    hops, _ = extract_all_hops(profiles, cfg)
    index = CorpusIndex.build(profiles, cfg)
    by_id = {p.user_id: p for p in profiles}
    stats = external_hop_fraction(hops, [CohortAxis.SKILL_COUNT], index, by_id)
    total = sum(c.external_hops + c.internal_hops for c in stats.cohorts.values())
    assert total == len(hops)  # skill count is defined for every hop
    for cell in stats.cohorts.values():
        assert cell.support == cell.external_hops + cell.internal_hops
        assert cell.suppressed == (cell.support < cfg.cohort_min_support)
    # Hops and the index drop the same stints, and usable + dropped = seen,
    # also with reversed stints and an analysis date that leaves future starts.
    corpus = profiles + [random_profile(rng, f"n{i}") for i in range(30)]
    for c in (cfg, config("2008-06")):
        _, diag = extract_all_hops(corpus, c)
        idx = CorpusIndex.build(corpus, c)
        dropped = (idx.future_jobs, idx.invalid_period_jobs)
        assert (diag.future_jobs, diag.invalid_period_jobs) == dropped
        usable = sum(len(usable_jobs(p, c.curr_date)) for p in corpus)
        assert usable + sum(dropped) == sum(len(p.jobs) for p in corpus)


# --- stay bins ----------------------------------------------------------------------

def test_promotion_by_stay_small_case():
    cfg = config("2016-06", cohort_min_support=1)
    records = [make_record(HopKind.INTERNAL, +1, stay=18)] * 3
    records += [make_record(HopKind.INTERNAL, -1, stay=18)]
    bins = promotion_by_stay(records, 12, cfg)
    assert len(bins) == 1
    b = bins[0]
    assert (b.lower_months, b.upper_months) == (12, 24)
    assert b.kind is HopKind.INTERNAL
    assert b.fraction == 0.75


def test_promotion_by_stay_suppression():
    cfg = config("2016-06", cohort_min_support=100)
    bins = promotion_by_stay([make_record(HopKind.EXTERNAL, 1, stay=4)], 12, cfg)
    assert bins[0].suppressed
    assert bins[0].fraction is None


def test_promotion_by_stay_rejects_bad_width():
    records = [make_record(HopKind.INTERNAL, +1, stay=18)]
    for width in (0, 12.0, True):
        with pytest.raises(ValueError, match="bin_width_months must be a positive integer"):
            promotion_by_stay(records, width, CFG)


def test_two_axis_cross_tabulation():
    cfg = config("2016-06", cohort_min_support=1)
    profiles = cohort_corpus()
    hops, _ = extract_all_hops(profiles, cfg)
    index = CorpusIndex.build(profiles, cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.WORK_EXP, CohortAxis.SKILL_COUNT], index,
        {p.user_id: p for p in profiles},
    )
    for specs, cell in stats.cohorts.items():
        assert len(specs) == 2
        assert specs[0].axis is CohortAxis.WORK_EXP
        assert specs[1].axis is CohortAxis.SKILL_COUNT
        assert cell.support == cell.external_hops + cell.internal_hops
    assert sum(c.support for c in stats.cohorts.values()) == len(hops)


def test_cohort_cells_at_bin_edges():
    # 60 months of work experience, a 60-month job age and 5 skills sit on
    # the edge of [5, 10); one month and one skill less fall in [0, 5).
    cfg = config("2016-06", cohort_min_support=1)

    def hopper(uid, title, start, end, skills):
        return profile(uid, grad="2008-06", skills=skills, jobs=[
            job(title, "x", "i", start, end), job("t9", "y", "i", end, "2015-01"),
        ])

    profiles = [
        hopper("edge", "t1", "2011-06", "2013-06", ("a", "b", "c", "d", "e")),
        hopper("below", "t0", "2011-07", "2013-05", ("a", "b", "c", "d")),
    ]
    hops, _ = extract_all_hops(profiles, cfg)
    index = CorpusIndex.build(profiles, cfg)
    by_id = {p.user_id: p for p in profiles}

    def cells(axes):
        stats = external_hop_fraction(hops, axes, index, by_id)
        return {
            tuple((s.axis, s.bin_lower, s.bin_upper) for s in key): cell.external_hops
            for key, cell in stats.cohorts.items()
        }

    w, a, k = CohortAxis.WORK_EXP, CohortAxis.JOB_AGE, CohortAxis.SKILL_COUNT
    assert cells([w, k]) == {
        ((w, 5.0, 10.0), (k, 5.0, 10.0)): 1,
        ((w, 0.0, 5.0), (k, 0.0, 5.0)): 1,
    }
    assert cells([a, w]) == {
        ((a, 5.0, 10.0), (w, 5.0, 10.0)): 1,
        ((a, 0.0, 5.0), (w, 0.0, 5.0)): 1,
    }


def test_skill_counts_come_from_profiles_by_id_not_the_index():
    # The index knows only u1; u2's seven skills still put its hop in [5, 10).
    cfg = config("2016-06", cohort_min_support=1)
    skills = tuple("abcdefg")
    profiles = [
        profile(u, grad="2008-06", skills=skills, jobs=[
            job("t1", "x", "i", "2010-01", "2012-01"), job("t2", "y", "i", "2012-01", "2014-01"),
        ])
        for u in ("u1", "u2")
    ]
    hops, _ = extract_all_hops(profiles, cfg)
    index = CorpusIndex.build(profiles[:1], cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.SKILL_COUNT], index, {p.user_id: p for p in profiles}
    )
    assert {
        (spec.bin_lower, spec.bin_upper): cell.support for (spec,), cell in stats.cohorts.items()
    } == {(5.0, 10.0): 2}
