"""Core data model: month-granular dates, jobs, profiles, and run configuration.

All durations are carried as signed month counts internally; reports convert
to years as months/12. Every type here except the StintDrops counters is
immutable after construction and safe to share across threads; dates,
records and profiles are slotted, so no attribute can be added either.
JobKey and OrgJobKey are named tuples that hash, compare and sort like plain
(title, ...) tuples: JobKey("a", "b") == OrgJobKey("a", "b"), so the two
must never key one dict.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import NamedTuple

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
