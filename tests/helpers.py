"""Shared builders for tests: terse profile/job construction and random corpora."""

from __future__ import annotations

import random
from typing import Iterable

from talentflow.hopgraph import HopGraph, NodeKey
from talentflow.model import AnalysisConfig, DateMonth, JobRecord, StintDrops, UserProfile


def dm(text: str) -> DateMonth:
    return DateMonth.parse(text)


def job(title, org, industry, start, end=None) -> JobRecord:
    return JobRecord(
        title=title,
        organization=org,
        industry=industry,
        start=dm(start),
        end=dm(end) if end is not None else None,
    )


def profile(user_id="u1", grad=None, skills=("python",), education=1, jobs=()) -> UserProfile:
    return UserProfile(
        user_id=user_id,
        grad_date=dm(grad) if grad is not None else None,
        skills=frozenset(skills),
        education_entries=education,
        jobs=tuple(jobs),
    )


def usable_jobs(profile: UserProfile, curr_date: DateMonth) -> list[JobRecord]:
    """The profile's stints that count, in listing order: model.usable_stints
    on objects, the reference the tests read stints through.

    A stint counts when it starts no later than the analysis date and does
    not end before it starts.
    """
    return [j for j in profile.jobs if j.start <= curr_date and j.has_valid_period(curr_date)]


def stint_drops(profiles: Iterable[UserProfile], curr_date: DateMonth) -> StintDrops:
    """The reference of StintTable.drops over the profiles: the stints
    usable_jobs leaves out by reason, one that fails both tests as a future
    start, and the usable ones that ended before graduation."""
    future = invalid = negative = 0
    for p in profiles:
        for j in p.jobs:
            if j.start > curr_date:
                future += 1
            elif not j.has_valid_period(curr_date):
                invalid += 1
            elif p.grad_date is not None and j.end_or(curr_date) < p.grad_date:
                negative += 1
    return StintDrops(future, invalid, negative)



def sorted_nodes(graph: HopGraph) -> list[NodeKey]:
    """The graph's nodes in its index's order, which the tests hold to sorted order."""
    return list(graph.index.nodes)


def sorted_edges(graph: HopGraph) -> list[tuple[tuple[NodeKey, NodeKey], int]]:
    """(edge, weight) pairs in the graph's index order, which the tests hold to sorted order."""
    return list(graph.index.items())

def config(curr="2016-06", **kwargs) -> AnalysisConfig:
    return AnalysisConfig(curr_date=dm(curr), **kwargs)


TITLES = ["analyst", "engineer", "manager", "lead", "director"]
ORGS = ["acme", "globex", "initech", "umbrella"]
INDUSTRY_OF = {"acme": "fin", "globex": "fin", "initech": "tech", "umbrella": "tech"}

_BASE_MONTH = 2000 * 12


def _month(total: int) -> DateMonth:
    return DateMonth(total // 12, total % 12 + 1)


def random_job(rng: random.Random, allow_open=True, allow_invalid=True) -> JobRecord:
    org = rng.choice(ORGS)
    start = _BASE_MONTH + rng.randrange(0, 15 * 12)
    if allow_invalid and rng.random() < 0.05:
        end_m = start - rng.randrange(1, 12)  # start > end, data noise
        end = _month(end_m)
    elif allow_open and rng.random() < 0.15:
        end = None
    else:
        end = _month(start + rng.randrange(0, 60))
    return JobRecord(
        title=rng.choice(TITLES),
        organization=org,
        industry=INDUSTRY_OF[org],
        start=_month(start),
        end=end,
    )


def random_profile(rng: random.Random, user_id: str, max_jobs=6, **job_kw) -> UserProfile:
    n = rng.randrange(0, max_jobs + 1)
    grad = _month(_BASE_MONTH - rng.randrange(0, 10 * 12)) if rng.random() < 0.8 else None
    return UserProfile(
        user_id=user_id,
        grad_date=grad,
        skills=frozenset(rng.sample(["python", "sql", "excel", "go"], rng.randint(1, 3))),
        education_entries=rng.randint(1, 2),
        jobs=tuple(random_job(rng, **job_kw) for _ in range(n)),
    )


def counting(calls, name, fn):
    """fn, adding one to calls[name] on each call (for monkeypatching)."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper
