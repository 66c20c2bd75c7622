"""Core data model: month-granular dates, jobs, profiles, and run configuration.

All durations are carried as signed month counts internally; reports convert
to years as months/12. Every type here except the StintDrops counters is
immutable after construction and safe to share across threads; dates,
records and profiles are slotted, so no attribute can be added either.
JobKey and OrgJobKey are named tuples that hash, compare and sort like plain
(title, ...) tuples: JobKey("a", "b") == OrgJobKey("a", "b"), so the two
must never key one dict.

usable_jobs is the one rule for which stints count. StintTable applies it
once to a whole corpus at one analysis date and keeps the result as integer
columns, one row per usable stint: hop extraction, the corpus index, graph
holder support and the distributions all read that table. Every function
that takes a profile list also takes a StintTable in its place.
"""

from __future__ import annotations

import re
import string
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import starmap
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_WS_RUN = re.compile(r"\s+")
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")


class InvalidLabelError(ValueError):
    """A label was empty after normalization."""


@dataclass(frozen=True, order=True, slots=True)
class DateMonth:
    """A calendar month. Totally ordered; differences are month counts."""

    year: int
    month: int
    ordinal: int = field(init=False, repr=False, compare=False)  # months since year 0

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range [1,12]: {self.month}")
        object.__setattr__(self, "ordinal", self.year * 12 + self.month - 1)

    @classmethod
    def parse(cls, text: str) -> "DateMonth":
        m = _DATE_RE.match(text)
        if m is None:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    def __sub__(self, other: "DateMonth") -> int:
        return months_between(other, self)


def months_between(a: DateMonth, b: DateMonth) -> int:
    """Signed month count from a to b; antisymmetric and additive."""
    return b.ordinal - a.ordinal


def normalize_label(raw: str) -> str:
    """Canonicalize a free-text label for identity comparisons.

    Trims surrounding whitespace, collapses internal whitespace runs to a
    single space, and lowercases A-Z only (locale-independent). Idempotent.

    Raises InvalidLabelError if nothing remains.
    """
    label = _WS_RUN.sub(" ", raw.strip()).translate(_ASCII_FOLD)
    if not label:
        raise InvalidLabelError(f"label empty after normalization: {raw!r}")
    return label


class JobKey(NamedTuple):
    """A job identity across organizations: (title, industry)."""

    title: str
    industry: str


class OrgJobKey(NamedTuple):
    """A job identity within one organization: (title, organization)."""

    title: str
    organization: str


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One employment stint. ``end is None`` means the job is still held.

    Labels are expected to be pre-normalized (see normalize_label); industry
    is a function of organization, which ingestion repairs and the generator
    guarantees. A record that starts after the analysis date or ends before
    it starts is constructible; usable_jobs leaves it out of every stage.
    """

    title: str
    organization: str
    industry: str
    start: DateMonth
    end: DateMonth | None = None
    key: JobKey = field(init=False, repr=False, compare=False)
    org_key: OrgJobKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Built once here (and again by dataclasses.replace), not per access.
        object.__setattr__(self, "key", JobKey(self.title, self.industry))
        object.__setattr__(self, "org_key", OrgJobKey(self.title, self.organization))

    def end_or(self, curr_date: DateMonth) -> DateMonth:
        """The stint's end, with an open end resolved to the analysis date."""
        return self.end if self.end is not None else curr_date

    def has_valid_period(self, curr_date: DateMonth) -> bool:
        return months_between(self.start, self.end_or(curr_date)) >= 0


@dataclass(frozen=True, slots=True)
class UserProfile:
    """One person's education summary, skills, and ordered job records."""

    user_id: str
    grad_date: DateMonth | None
    skills: frozenset[str]
    education_entries: int
    jobs: tuple[JobRecord, ...]

    @property
    def is_active(self) -> bool:
        """At least one education entry and at least one skill."""
        return self.education_entries >= 1 and len(self.skills) >= 1


@dataclass
class StintDrops:
    """Counts of the stints usable_jobs left out, by reason."""

    future_jobs: int = 0  # starts after the analysis date
    invalid_period_jobs: int = 0  # ends before it starts

    def add(self, other: "StintDrops") -> None:
        self.future_jobs += other.future_jobs
        self.invalid_period_jobs += other.invalid_period_jobs


def usable_jobs(
    profile: UserProfile, curr_date: DateMonth, drops: StintDrops | None = None
) -> list[JobRecord]:
    """The profile's stints that count, in listing order.

    A stint counts when it starts no later than the analysis date and does
    not end before it starts (an open end resolves to the analysis date).
    Every stage reads stints through here. Drops are counted in drops when
    given; a stint that fails both tests counts as a future start.
    """
    if drops is None:
        drops = StintDrops()
    now = curr_date.ordinal
    kept = []
    for j in profile.jobs:
        start = j.start.ordinal
        if start > now:
            drops.future_jobs += 1
        elif (now if j.end is None else j.end.ordinal) < start:
            drops.invalid_period_jobs += 1
        else:
            kept.append(j)
    return kept


NO_EXPERIENCE = -1  # StintTable.work_exp where work experience is undefined


@dataclass(frozen=True, eq=False, slots=True)
class StintTable:
    """The usable stints of a corpus at one analysis date, as integer columns.

    Row r is the stint jobs[r] of user user[r]. Users are positions in
    user_ids: the profiles in their given order for a table built by of(),
    the distinct hop users for a table of hop endpoints (see HopTable.of).
    user_code[u] numbers user u's id among the distinct ids, so that two
    profiles with one user_id are one person to every distinct-user count.
    job_key, org_key and org index the distinct job_keys, org_keys and
    orgs, numbered in order of first appearance. start and end are month
    ordinals, an open end resolved to curr_date. work_exp is the months
    from the user's graduation to the end, or NO_EXPERIENCE without a
    graduation date or when the stint ended before it. Rows keep listing
    order, profile by profile. drops and negative_experience_jobs count the
    stints usable_jobs left out and the usable ones that ended before
    graduation.

    A table of hop endpoints has no curr_date, profiles or skill counts; its
    open ends read -1 and its work_exp is NO_EXPERIENCE throughout. The
    arrays are read-only.
    """

    curr_date: DateMonth | None
    profiles: tuple[UserProfile, ...]
    user_ids: tuple[str, ...]
    user_code: np.ndarray  # intp, one per user
    skill_count: np.ndarray  # int64, one per profile
    jobs: tuple[JobRecord, ...]
    user: np.ndarray  # intp
    job_key: np.ndarray  # intp
    job_keys: tuple[JobKey, ...]
    org_key: np.ndarray  # intp
    org_keys: tuple[OrgJobKey, ...]
    org: np.ndarray  # intp
    orgs: tuple[str, ...]
    start: np.ndarray  # int64
    end: np.ndarray  # int64
    work_exp: np.ndarray  # int64
    drops: StintDrops
    negative_experience_jobs: int

    @classmethod
    def of(
        cls, profiles: "Iterable[UserProfile] | StintTable", curr_date: DateMonth
    ) -> "StintTable":
        """The table of the profiles' usable stints; a table is returned as is.

        One usable_jobs pass over the profiles. A StintTable built for
        another analysis date raises ValueError.
        """
        if isinstance(profiles, StintTable):
            if profiles.curr_date != curr_date:
                raise ValueError(
                    f"stint table is for {profiles.curr_date}, not the analysis date {curr_date}"
                )
            return profiles
        profiles = tuple(profiles)
        drops = StintDrops()
        jobs: list[JobRecord] = []
        per_user = []
        for p in profiles:
            kept = usable_jobs(p, curr_date, drops)
            jobs += kept
            per_user.append(len(kept))
        user = np.repeat(np.arange(len(profiles)), per_user)
        now = curr_date.ordinal
        end = _column(now if e is None else e.ordinal for e in map(attrgetter("end"), jobs))
        grad = [p.grad_date for p in profiles]
        has_grad = np.fromiter((g is not None for g in grad), bool, len(grad))
        grad_month = _column(0 if g is None else g.ordinal for g in grad)
        months = end - grad_month[user]
        defined = has_grad[user] & (months >= 0)
        return _stint_table(
            curr_date,
            profiles,
            tuple(p.user_id for p in profiles),
            _column(len(p.skills) for p in profiles),
            jobs,
            user,
            end,
            np.where(defined, months, NO_EXPERIENCE),
            drops,
            int(np.count_nonzero(has_grad[user] & (months < 0))),
        )

    @classmethod
    def of_endpoints(cls, user_ids: Sequence[str], jobs: Sequence[JobRecord]) -> "StintTable":
        """A table of hop endpoints: row r is jobs[r], held by user_ids[r].

        Users are the distinct ids in order of first appearance.
        """
        user, ids = _codes(list(user_ids))
        end = _column(-1 if e is None else e.ordinal for e in map(attrgetter("end"), jobs))
        return _stint_table(
            None, (), ids, _column(()), list(jobs), user, end,
            np.full(len(jobs), NO_EXPERIENCE, np.int64), StintDrops(), 0,
        )

    def __len__(self) -> int:
        return len(self.jobs)

    def ends_at(self, curr_date: DateMonth) -> np.ndarray:
        """Each row's end ordinal with an open end resolved to curr_date."""
        if curr_date == self.curr_date:
            return self.end
        return _column(j.end_or(curr_date).ordinal for j in self.jobs)


def _column(values: Iterable[int]) -> np.ndarray:
    return np.fromiter(values, np.int64)


def _codes(values: list) -> tuple[np.ndarray, tuple]:
    """(code per value, distinct values): codes number values by first appearance."""
    distinct = tuple(dict.fromkeys(values))
    ids = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(map(ids.__getitem__, values), np.intp, len(values)), distinct


def _stint_table(
    curr_date, profiles, user_ids, skill_count, jobs, user, end, work_exp, drops, negative
) -> StintTable:
    user_code, _ = _codes(list(user_ids))
    job_key, job_keys = _codes([j.key for j in jobs])
    org_key, org_keys = _codes([j.org_key for j in jobs])
    org, orgs = _codes([j.organization for j in jobs])
    start = _column(j.start.ordinal for j in jobs)
    arrays = (user_code, skill_count, user, job_key, org_key, org, start, end, work_exp)
    for a in arrays:
        a.flags.writeable = False
    return StintTable(
        curr_date, profiles, user_ids, user_code, skill_count, tuple(jobs), user,
        job_key, job_keys, org_key, org_keys, org, orgs, start, end, work_exp, drops, negative,
    )


class RowViews(Sequence):
    """A read-only sequence of objects built on demand from table rows.

    A subclass gives __len__, _columns() -- the arrays whose row i holds
    the arguments of item i -- and _view(*arguments). It equals any other
    sequence of equal items.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _columns(self) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _view(self, *row):
        raise NotImplementedError

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return self._view(*(c[i].item() for c in self._columns()))

    def __iter__(self) -> Iterator:
        return starmap(self._view, zip(*(c.tolist() for c in self._columns())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Index of each distinct value's first occurrence in a sorted array."""
    return np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))


def groups(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by equal values in every column, groups in ascending order.

    Returns (order, first, size): the row indices in group order, where each
    group starts in order, and each group's row count. Sorting stands in for
    np.unique, which imports numpy.ma on its first call (about 2 MB of peak
    memory).
    """
    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), bool)
    new[:1] = True
    for c in columns:
        ordered = c[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    first = np.flatnonzero(new)
    return order, first, np.diff(np.append(first, len(order)))


def distinct_counts(item: np.ndarray, who: np.ndarray, n_items: int) -> np.ndarray:
    """Per item id below n_items, how many distinct who-codes occur with it."""
    order, first, _ = groups(item, who)
    return np.bincount(item[order[first]], minlength=n_items)


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs shared by the whole pipeline.

    curr_date is fixed for an entire analysis run: every job-age value and
    every open-ended stint resolves against the same reference month.
    """

    curr_date: DateMonth
    min_support: int = 10
    group_bin_width_years: int = 5
    cohort_min_support: int = 100
    teleport_prob: float = 0.15
    pagerank_tol: float = 1e-8
    pagerank_max_iter: int = 100

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ValueError("min_support must be a positive integer")
        if self.group_bin_width_years < 1:
            raise ValueError("group_bin_width_years must be a positive integer")
        if self.cohort_min_support < 1:
            raise ValueError("cohort_min_support must be a positive integer")
        if not 0.0 < self.teleport_prob < 1.0:
            raise ValueError("teleport_prob must lie in (0, 1)")
        if self.pagerank_tol <= 0.0:
            raise ValueError("pagerank_tol must be positive")
        if self.pagerank_max_iter < 1:
            raise ValueError("pagerank_max_iter must be a positive integer")
