"""Hop derivation from job histories.

A hop is a transition between two chronologically consecutive jobs whose
time periods do not overlap. It is external when the organizations differ,
and internal when the organization is the same but the title changes; a
repeated (title, organization) listing is a duplicate, not a hop. Jobs are
ordered by (start, end, title, organization) so the result is independent
of input order; consecutive-only pairing keeps one career from being
counted more than once per transition.

Hops are derived from a StintTable in one pass: a stable sort of all stints
by (user, start, end, code of the (title, organization) key, which the
table numbers in sorted order), packed into one int64 key by
model.sort_order, and a comparison of neighbouring rows. The
result is a HopTable, integer columns that point into the stint table; it
is also a read-only sequence of Hop objects, each built only when it is
read. Functions that take hops accept the table or any iterable of Hop
objects (see HopTable.of). No function here counts dropped stints: that
is StintTable.of's frozen drops, which extract_all_hops returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .model import (
    AnalysisConfig,
    DateMonth,
    JobRecord,
    RowViews,
    StintDrops,
    StintTable,
    UserProfile,
    months_between,
    read_only,
    sort_order,
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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class HopTable(RowViews):
    """Hops as integer columns over a stint table; a read-only Sequence[Hop].

    Hop i runs from stint src[i] to stint dst[i] of stints; external[i] is
    its kind and stay[i] its duration_of_stay_months. Indexing builds a Hop
    view; two tables, or a table and a list, are equal when their hops are.
    The arrays are read-only.
    """

    stints: StintTable
    src: np.ndarray  # intp
    dst: np.ndarray  # intp
    external: np.ndarray  # bool
    stay: np.ndarray  # int64

    def __post_init__(self) -> None:
        read_only(self.src, self.dst, self.external, self.stay)

    @classmethod
    def of(cls, hops: Iterable[Hop]) -> "HopTable":
        """The hops as a table; a HopTable is returned as is.

        Plain Hop objects become a table over a stint table of their
        endpoints, each hop keeping its own kind and duration.
        """
        if isinstance(hops, HopTable):
            return hops
        hops = list(hops)
        users = [h.user_id for h in hops]
        stints = StintTable.of_endpoints(
            [u for u in users for _ in (0, 1)],
            [j for h in hops for j in (h.source, h.dest)],
        )
        src = np.arange(0, 2 * len(hops), 2)
        return cls(
            stints,
            src,
            src + 1,
            np.fromiter((h.kind is HopKind.EXTERNAL for h in hops), bool, len(hops)),
            np.fromiter((h.duration_of_stay_months for h in hops), np.int64, len(hops)),
        )

    @classmethod
    def of_stints(cls, stints: StintTable) -> "HopTable":
        """Every user's hops, users in table order, each user's in time order."""
        # Org key codes ascend as (title, organization) sorts, so they break
        # ties the way the (start, end, title, organization) order does; the
        # sort is stable, so equal stints keep their listing order.
        order = sort_order(stints.user, stints.start, stints.end, stints.org_key)
        a, b = order[:-1], order[1:]
        is_hop = (
            (stints.user[a] == stints.user[b])
            & (stints.start[b] >= stints.end[a])
            & (stints.org_key[a] != stints.org_key[b])
        )
        src, dst = a[is_hop], b[is_hop]
        return cls(
            stints,
            src,
            dst,
            stints.org[src] != stints.org[dst],
            stints.end[src] - stints.start[src],
        )

    @property
    def user(self) -> np.ndarray:
        """Each hop's user, a position in stints.user_ids."""
        return self.stints.user[self.src]

    def __len__(self) -> int:
        return len(self.src)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.src, self.dst, self.external, self.stay

    def _view(self, src: int, dst: int, external: bool, stay: int) -> Hop:
        stints = self.stints
        return Hop(
            user_id=stints.user_ids[stints.user[src]],
            source=stints.job(src),
            dest=stints.job(dst),
            kind=HopKind.EXTERNAL if external else HopKind.INTERNAL,
            duration_of_stay_months=stay,
        )

    def __repr__(self) -> str:
        return f"HopTable({len(self)} hops over {len(self.stints)} stints)"


def extract_hops(profile: UserProfile, curr_date: DateMonth) -> list[Hop]:
    """Derive the hops of one profile, in chronological order.

    Only the stints usable_stints keeps take part; an overlapping adjacent
    pair emits nothing but the chain continues with the next job. A zero gap
    (dest starts the month the source ends) is a hop.
    """
    return list(HopTable.of_stints(StintTable.of([profile], curr_date)))


def extract_all_hops(
    profiles: Iterable[UserProfile] | StintTable, config: AnalysisConfig
) -> tuple[HopTable, StintDrops]:
    """Extract hops for a whole corpus, profile order preserved.

    Takes the profiles (a ProfileTable or UserProfile objects) or their
    StintTable; returns the hops and the table's frozen stint counts.
    """
    stints = StintTable.of(profiles, config.curr_date)
    return HopTable.of_stints(stints), stints.drops
