"""Hop derivation from job histories.

A hop is a transition between two chronologically consecutive jobs whose
time periods do not overlap. It is external when the organizations differ,
and internal when the organization is the same but the title changes; a
repeated (title, organization) listing is a duplicate, not a hop. Jobs are
ordered by (start, end, title, organization) so the result is independent
of input order; consecutive-only pairing keeps one career from being
counted more than once per transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    AnalysisConfig,
    DateMonth,
    JobRecord,
    StintDrops,
    UserProfile,
    months_between,
    usable_jobs,
)


class HopKind(str, Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass(frozen=True)
class Hop:
    """A directed transition between two jobs of one user.

    duration_of_stay_months is the length of the source stint (end - start,
    with an open end resolved to the analysis date before extraction).
    """

    user_id: str
    source: JobRecord
    dest: JobRecord
    kind: HopKind
    duration_of_stay_months: int


# Counters for the stints extraction dropped, by reason.
HopDiagnostics = StintDrops


def classify_hop(
    source: JobRecord, dest: JobRecord, curr_date: DateMonth
) -> HopKind | None:
    """Classify a candidate source -> dest transition.

    Returns None when the pair is not a hop: overlapping periods, or the
    same title at the same organization (a duplicate listing).
    """
    if months_between(source.end_or(curr_date), dest.start) < 0:
        return None
    if source.organization != dest.organization:
        return HopKind.EXTERNAL
    if source.title != dest.title:
        return HopKind.INTERNAL
    return None


def _sort_key(curr_date: DateMonth):
    def key(j: JobRecord):
        return (j.start.ordinal, j.end_or(curr_date).ordinal, j.title, j.organization)

    return key


def extract_hops(
    profile: UserProfile,
    curr_date: DateMonth,
    diag: HopDiagnostics | None = None,
) -> list[Hop]:
    """Derive the hops of one profile, in chronological order.

    Only the stints usable_jobs keeps take part (drops are counted in diag
    when given); an overlapping adjacent pair emits nothing but the chain
    continues with the next job. A zero gap (dest starts the month the
    source ends) is a hop.
    """
    jobs = sorted(usable_jobs(profile, curr_date, diag), key=_sort_key(curr_date))

    hops: list[Hop] = []
    for source, dest in zip(jobs, jobs[1:]):
        kind = classify_hop(source, dest, curr_date)
        if kind is None:
            continue
        hops.append(
            Hop(
                user_id=profile.user_id,
                source=source,
                dest=dest,
                kind=kind,
                duration_of_stay_months=months_between(
                    source.start, source.end_or(curr_date)
                ),
            )
        )
    return hops


def extract_all_hops(
    profiles: list[UserProfile], config: AnalysisConfig
) -> tuple[list[Hop], HopDiagnostics]:
    """Extract hops for a whole corpus, profile order preserved."""
    diag = HopDiagnostics()
    hops: list[Hop] = []
    for p in profiles:
        hops.extend(extract_hops(p, config.curr_date, diag))
    return hops, diag
