import random

from hypothesis import given, settings, strategies as st

from talentflow.hops import HopKind, classify_hop, extract_hops
from talentflow.model import StintTable, months_between
from helpers import dm, job, profile, random_profile

CURR = dm("2016-06")


# --- independent oracle -----------------------------------------------------
# Re-derives hops from first principles: resolve open ends, drop reversed
# periods, sort, walk consecutive pairs, apply the three predicates.

def oracle_hops(p, curr):
    def end_of(j):
        return j.end if j.end is not None else curr

    jobs = [j for j in p.jobs if months_between(j.start, end_of(j)) >= 0]
    jobs = sorted(jobs, key=lambda j: (j.start, end_of(j), j.title, j.organization))
    out = []
    for a, b in zip(jobs, jobs[1:]):
        if b.start < end_of(a):
            continue  # overlapping periods: not a hop
        if a.organization != b.organization:
            kind = HopKind.EXTERNAL
        elif a.title != b.title:
            kind = HopKind.INTERNAL
        else:
            continue  # duplicate listing of the same job
        out.append((a, b, kind, months_between(a.start, end_of(a))))
    return out


def as_tuples(hops):
    return [(h.source, h.dest, h.kind, h.duration_of_stay_months) for h in hops]


# --- examples ---------------------------------------------------------------

def test_single_job_no_hops():
    p = profile(jobs=[job("engineer", "x", "i", "2010-01", "2012-01")])
    assert extract_hops(p, CURR) == []


def test_internal_hop_with_duration():
    p = profile(jobs=[
        job("engineer", "x", "i", "2010-01", "2012-01"),
        job("manager", "x", "i", "2012-01", "2014-01"),
    ])
    hops = extract_hops(p, CURR)
    assert len(hops) == 1
    assert hops[0].kind is HopKind.INTERNAL
    assert hops[0].duration_of_stay_months == 24


def test_repeated_same_job_is_not_a_hop():
    p = profile(jobs=[
        job("civil engineer", "x", "i", "2010-01", "2011-01"),
        job("civil engineer", "x", "i", "2011-02", "2012-01"),
        job("civil engineer", "x", "i", "2012-02", "2013-01"),
    ])
    assert extract_hops(p, CURR) == []


def test_external_hop_same_title_allowed():
    assert classify_hop(
        job("analyst", "acme", "fin", "2010-01", "2011-01"),
        job("analyst", "globex", "fin", "2011-01", "2012-01"),
        CURR,
    ) is HopKind.EXTERNAL


def test_classify_examples():
    a = job("analyst", "acme", "fin", "2010-01", "2011-01")
    same = job("analyst", "acme", "fin", "2011-01", "2012-01")
    lead = job("lead", "acme", "fin", "2011-01", "2012-01")
    assert classify_hop(a, same, CURR) is None
    assert classify_hop(a, lead, CURR) is HopKind.INTERNAL


def test_overlap_blocks_hop_but_chain_continues():
    p = profile(jobs=[
        job("a", "x", "i", "2010-01", "2012-01"),
        job("b", "y", "i", "2011-06", "2013-01"),  # overlaps the first
        job("c", "z", "i", "2013-01", "2014-01"),
    ])
    hops = extract_hops(p, CURR)
    assert [(h.source.title, h.dest.title) for h in hops] == [("b", "c")]


def test_zero_gap_boundary_is_a_hop():
    p = profile(jobs=[
        job("a", "x", "i", "2010-01", "2012-01"),
        job("b", "y", "i", "2012-01", "2013-01"),
    ])
    assert len(extract_hops(p, CURR)) == 1


def test_open_job_is_only_source_when_not_overlapping():
    # The open job resolves to the analysis date, overlapping the later job.
    p = profile(jobs=[
        job("a", "x", "i", "2010-01"),
        job("b", "y", "i", "2013-01", "2014-01"),
    ])
    assert extract_hops(p, CURR) == []


def test_invalid_period_skipped_and_counted():
    p = profile(jobs=[
        job("a", "x", "i", "2012-01", "2010-01"),  # reversed
        job("b", "y", "i", "2012-01", "2013-01"),
        job("c", "z", "i", "2013-02", "2014-01"),
    ])
    hops = extract_hops(p, CURR)
    assert StintTable.of([p], CURR).drops.invalid_period_jobs == 1
    assert [(h.source.title, h.dest.title) for h in hops] == [("b", "c")]


# --- properties -------------------------------------------------------------

def jobs_strategy(n):
    return st.lists(
        st.builds(
            lambda t, o, s, d, open_: job(
                t, o, {"acme": "fin", "globex": "fin", "initech": "tech"}[o],
                f"{2000 + s // 12:04d}-{s % 12 + 1:02d}",
                None if open_ else f"{2000 + (s + d) // 12:04d}-{(s + d) % 12 + 1:02d}",
            ),
            t=st.sampled_from(["analyst", "engineer", "manager"]),
            o=st.sampled_from(["acme", "globex", "initech"]),
            s=st.integers(0, 120),
            d=st.integers(0, 48),
            open_=st.booleans(),
        ),
        max_size=n,
    )


@given(jobs_strategy(6))
def test_matches_oracle(jobs):
    p = profile(jobs=jobs)
    assert as_tuples(extract_hops(p, CURR)) == oracle_hops(p, CURR)


@given(jobs_strategy(6), st.randoms(use_true_random=False))
def test_permutation_invariant(jobs, rnd):
    p1 = profile(jobs=jobs)
    shuffled = list(jobs)
    rnd.shuffle(shuffled)
    p2 = profile(jobs=shuffled)
    assert as_tuples(extract_hops(p1, CURR)) == as_tuples(extract_hops(p2, CURR))


@given(jobs_strategy(6))
def test_at_most_n_minus_one_hops(jobs):
    p = profile(jobs=jobs)
    hops = extract_hops(p, CURR)
    assert len(hops) <= max(0, len(jobs) - 1)


@given(jobs_strategy(6))
@settings(max_examples=200)
def test_emitted_hops_satisfy_invariants(jobs):
    p = profile(jobs=jobs)
    for h in extract_hops(p, CURR):
        assert months_between(h.source.end_or(CURR), h.dest.start) >= 0
        assert h.duration_of_stay_months >= 0
        if h.kind is HopKind.EXTERNAL:
            assert h.source.organization != h.dest.organization
        else:
            assert h.source.organization == h.dest.organization
            assert h.source.title != h.dest.title


def test_oracle_agreement_bulk_random():
    rng = random.Random(2024)
    for i in range(300):
        p = random_profile(rng, f"u{i}")
        assert as_tuples(extract_hops(p, CURR)) == oracle_hops(p, CURR)
