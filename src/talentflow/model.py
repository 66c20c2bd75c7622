"""Core data model: month-granular dates, jobs, profiles, and run configuration.

All durations are carried as signed month counts internally; reports convert
to years as months/12. Every type here except the StintDrops counters is
immutable after construction and safe to share across threads (a
ProfileTable caches its views once, on first iteration, and any thread's
cache is as good as another's); dates, records and profiles are slotted,
so no attribute can be added either.
JobKey and OrgJobKey are named tuples that hash, compare and sort like plain
(title, ...) tuples: JobKey("a", "b") == OrgJobKey("a", "b"), so the two
must never key one dict.

A corpus is a ProfileTable: integer columns per user (id, graduation month,
education count, skill ids) and per job (user, title, organization and
industry label ids, start and end months). One builder, ProfileColumns,
makes every table: ingest fills it straight from the parsed lines, and
ProfileTable.of from a list of UserProfile objects. UserProfile and
JobRecord objects are views a table builds only when one is read; the
views of a packed list equal its objects but are not them.

usable_stints is the one rule for which stints count. StintTable applies it
once to a whole profile table at one analysis date, as a mask over the job
columns, and keeps one row per usable stint: hop extraction, the corpus
index, graph holder support and the distributions all read that table.
Every function that takes profiles also takes a StintTable in their place.
"""

from __future__ import annotations

import math
import re
import string
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import starmap
from typing import Iterable, Iterator, NamedTuple

import numpy as np

_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_DATE_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


class InvalidLabelError(ValueError):
    """A label was empty after normalization, or not encodable as UTF-8."""


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
    def of_ordinal(cls, ordinal: int) -> "DateMonth":
        """The month ordinal months after January of year 0."""
        return cls(ordinal // 12, ordinal % 12 + 1)

    @classmethod
    def parse(cls, text: str) -> "DateMonth":
        m = _DATE_RE.fullmatch(text)
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


def year_bins(months: np.ndarray, width: float) -> np.ndarray:
    """Per month count, k of its bin [k * width, (k + 1) * width) of years, months / 12."""
    return np.floor_divide(months / 12.0, width).astype(np.int64)


def normalize_label(raw: str) -> str:
    """Canonicalize a free-text label for identity comparisons.

    Trims surrounding whitespace, collapses internal whitespace runs to a
    single space, and lowercases A-Z only (locale-independent). Idempotent.

    Raises InvalidLabelError if nothing remains, or if the label cannot be
    encoded as UTF-8 (it holds a lone surrogate such as "\\ud800").
    """
    # str.split() splits on exactly the characters str.isspace() accepts,
    # the set the regex class \s matches, and drops empty ends; str.lower()
    # on ASCII text changes only A-Z.
    label = " ".join(raw.split())
    if label.isascii():
        label = label.lower()
    else:
        label = label.translate(_ASCII_FOLD)
        try:
            label.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidLabelError(f"label not encodable as UTF-8: {raw!r}") from exc
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
    it starts is constructible; usable_stints leaves it out of every stage.
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


def read_only(*arrays: np.ndarray) -> None:
    """Clear each array's writeable flag: how every table freezes its columns."""
    for a in arrays:
        a.flags.writeable = False


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


NO_DATE = -1  # a ProfileTable month column where there is no date


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class ProfileTable(RowViews):
    """Profiles as id-coded integer columns; a read-only Sequence[UserProfile].

    Labels are ids into labels and dates are month ordinals. Per user u, in
    the profiles' order: user_id[u]; user_code[u], equal for equal ids;
    grad[u], the latest graduation or NO_DATE; education[u], the education
    entry count; and the skill ids skill[skill_start[u]:skill_start[u + 1]].
    Per job row r, profile by profile in listing order: user[r], the title,
    organization and industry ids, start[r], and end[r] or NO_DATE while the
    job is held; user u's rows are job_start[u]:job_start[u + 1].

    Indexing builds a UserProfile view and job(r) a JobRecord view, each only
    when read, also for a table packed from objects (of): its views equal
    the objects but are not them. Views share the table's label strings and
    the DateMonth objects in months. A ProfileColumns builds every table.
    The first iteration over the table keeps the views it built, so that
    iterating again costs what it costs over a list: views cost about 6 us
    a job to build, so a loop that rescans 4,000 profiles (25,000 jobs) per
    key would spend 0.14 s a pass rebuilding them, against 1.5 ms a pass
    over the kept views. Nothing else keeps a view; the arrays are
    read-only.
    """

    labels: tuple[str, ...]
    user_id: tuple[str, ...]
    user_code: np.ndarray  # intp
    grad: np.ndarray  # int64
    education: np.ndarray  # int64
    skill_start: np.ndarray  # intp, one more than there are users
    skill: np.ndarray  # intp
    user: np.ndarray  # intp, ascending
    title: np.ndarray  # intp
    organization: np.ndarray  # intp
    industry: np.ndarray  # intp
    start: np.ndarray  # int64
    end: np.ndarray  # int64
    months: Mapping[int, DateMonth] = field(default_factory=dict)
    job_start: np.ndarray = field(init=False)
    _views: tuple[UserProfile, ...] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "job_start", _offsets(np.bincount(self.user, minlength=len(self.user_id)))
        )
        read_only(self.user_code, self.grad, self.education, self.skill_start, self.skill,
                  self.user, self.title, self.organization, self.industry, self.start,
                  self.end, self.job_start)

    @classmethod
    def of(cls, profiles: Iterable[UserProfile]) -> "ProfileTable":
        """The profiles as a table; a ProfileTable is returned as is.

        UserProfile objects are packed into the columns, their labels coded
        as they are. A date before year 0 raises ValueError.
        """
        if isinstance(profiles, ProfileTable):
            return profiles
        columns = ProfileColumns()
        for p in profiles:
            columns.add(
                p.user_id,
                columns.ordinal(p.grad_date),
                p.education_entries,
                list(map(columns.label, p.skills)),
                [i for j in p.jobs for i in columns.job(j)],
            )
        return columns.table()

    def __len__(self) -> int:
        return len(self.user_id)

    @property
    def skill_count(self) -> np.ndarray:
        return np.diff(self.skill_start)

    @property
    def is_active(self) -> np.ndarray:
        """Per user, UserProfile.is_active: an education entry and a skill."""
        return (self.education >= 1) & (self.skill_count >= 1)

    def month(self, ordinal: int) -> DateMonth:
        return self.months.get(ordinal) or DateMonth.of_ordinal(ordinal)

    def job(self, r: int) -> JobRecord:
        """Job row r as a JobRecord."""
        return self._jobs(r, r + 1)[0]

    def _jobs(self, first: int, last: int) -> tuple[JobRecord, ...]:
        """Job rows first:last as JobRecords."""
        labels, month = self.labels, self.month
        return tuple(
            JobRecord(labels[t], labels[o], labels[i], month(s), None if e == NO_DATE else month(e))
            for t, o, i, s, e in zip(
                *(c[first:last].tolist()
                  for c in (self.title, self.organization, self.industry, self.start, self.end))
            )
        )

    def __getitem__(self, i):
        users = range(len(self))[i]  # the user positions, negative and out-of-range handled
        return self._view(users) if isinstance(users, int) else list(map(self._view, users))

    def __iter__(self) -> Iterator[UserProfile]:
        if self._views is None:
            object.__setattr__(self, "_views", tuple(map(self._view, range(len(self)))))
        return iter(self._views)

    def _view(self, u: int) -> UserProfile:
        if self._views is not None:
            return self._views[u]
        grad = self.grad[u].item()
        first, last = self.skill_start[u : u + 2].tolist()
        return UserProfile(
            user_id=self.user_id[u],
            grad_date=None if grad == NO_DATE else self.month(grad),
            skills=frozenset(map(self.labels.__getitem__, self.skill[first:last].tolist())),
            education_entries=self.education[u].item(),
            jobs=self._jobs(*self.job_start[u : u + 2].tolist()),
        )

    def take(self, keep: np.ndarray) -> "ProfileTable":
        """The users where the bool mask keep is set, in order, with their jobs."""
        users = np.flatnonzero(keep)
        rows = np.flatnonzero(keep[self.user])
        skill_count = self.skill_count
        return ProfileTable(
            self.labels,
            tuple(map(self.user_id.__getitem__, users.tolist())),
            self.user_code[users],
            self.grad[users],
            self.education[users],
            _offsets(skill_count[users]),
            self.skill[np.repeat(keep, skill_count)],
            (np.cumsum(keep) - 1)[self.user[rows]],
            self.title[rows],
            self.organization[rows],
            self.industry[rows],
            self.start[rows],
            self.end[rows],
            self.months,
        )

    def __repr__(self) -> str:
        return f"ProfileTable({len(self)} profiles, {len(self.user)} jobs)"


class ProfileColumns:
    """Profiles appended as flat int lists or as packed arrays, until table()
    packs them.

    The one way a ProfileTable is built: ingest, ProfileTable.of and
    StintTable.of_endpoints all fill one. ids maps labels to their ids,
    positions in labels; months maps each month ordinal to one DateMonth;
    seen_ids holds the user ids added. User codes number the ids in order of
    first appearance, so equal ids get equal codes; while the ids are
    distinct, as ingest keeps them, a code is the user's position.
    """

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.labels: list[str] = []
        self.months: dict[int, DateMonth] = {}
        self.seen_ids: set[str] = set()
        self.user_id: list[str] = []
        self.grad: list[int] = []
        self.education: list[int] = []
        self.skill_count: list[int] = []
        self.skill: list[int] = []
        self.job_count: list[int] = []
        self.jobs: list[int] = []  # five per job, as job() gives them
        # The profiles before those in the lists, as arrays() packs them.
        self.blocks: list[tuple[np.ndarray, ...]] = []

    def label(self, label: str) -> int:
        """The id of a label, coded as it is."""
        if (label_id := self.ids.get(label)) is None:
            label_id = self.ids[label] = len(self.labels)
            self.labels.append(label)
        return label_id

    def ordinal(self, date: DateMonth | None) -> int:
        """The month ordinal of a date, NO_DATE for None.

        A date before year 0 raises ValueError: its ordinal would read as
        NO_DATE or below.
        """
        if date is None:
            return NO_DATE
        if date.ordinal < 0:
            raise ValueError(f"dates before year 0 are not supported: {date}")
        return self.months.setdefault(date.ordinal, date).ordinal

    def job(self, j: JobRecord) -> tuple[int, int, int, int, int]:
        """A job's title, organization and industry ids, start and end ordinals."""
        label, ordinal = self.label, self.ordinal
        return (label(j.title), label(j.organization), label(j.industry),
                ordinal(j.start), ordinal(j.end))

    def add(
        self, user_id: str, grad: int, education: int, skills: Collection[int], jobs: Sequence[int]
    ) -> None:
        """Append one profile: graduation ordinal or NO_DATE, education count,
        distinct skill ids, and five ints per job as job() gives them."""
        self.seen_ids.add(user_id)
        self.user_id.append(user_id)
        self.grad.append(grad)
        self.education.append(education)
        self.skill_count.append(len(skills))
        self.skill += skills
        self.job_count.append(len(jobs) // 5)
        self.jobs += jobs

    def extend(self, user_id: Sequence[str], arrays: Sequence[np.ndarray]) -> None:
        """Append profiles packed as arrays() gives them, coded here."""
        self._pack()
        self.seen_ids.update(user_id)
        self.user_id += user_id
        self.blocks.append(tuple(arrays))

    def _pack(self) -> None:
        """Move the profiles in the lists into a block of arrays."""
        if self.grad:
            self.blocks.append((
                *(np.array(c, np.int64)
                  for c in (self.grad, self.education, self.skill_count, self.skill,
                            self.job_count)),
                *(np.array(self.jobs[i::5], np.int64) for i in range(5)),
            ))
            self.grad, self.education, self.skill_count = [], [], []
            self.skill, self.job_count, self.jobs = [], [], []

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The profiles as int64 arrays: per user the graduation ordinal,
        education count and skill count; the skill ids; per user the job
        count; and per job the title, organization and industry ids and the
        start and end ordinals."""
        self._pack()
        if len(self.blocks) != 1:
            self.blocks = [tuple(
                np.concatenate(c) for c in zip(*self.blocks)
            ) if self.blocks else (np.zeros(0, np.int64),) * 10]
        return self.blocks[0]

    def table(
        self, repair: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    ) -> ProfileTable:
        """The profile table; repair, given, maps the organization and
        industry columns to the industry column the table keeps."""
        n = len(self.user_id)
        (grad, education, skill_count, skill, job_count,
         title, organization, industry, start, end) = self.arrays()
        if repair is not None:
            industry = repair(organization, industry)
        return ProfileTable(
            tuple(self.labels),
            tuple(self.user_id),
            np.arange(n) if len(self.seen_ids) == n else _codes(self.user_id),
            grad,
            education,
            _offsets(skill_count),
            skill,
            np.repeat(np.arange(n), job_count),
            title,
            organization,
            industry,
            start,
            end,
            self.months,
        )


@dataclass
class StintDrops:
    """Stint counts by reason: the stints usable_stints left out, and the
    usable ones that ended before graduation, which only the work-experience
    aggregates leave out."""

    future_jobs: int = 0  # starts after the analysis date
    invalid_period_jobs: int = 0  # ends before it starts
    negative_experience_jobs: int = 0  # usable, but ended before graduation

    def add(self, other: "StintDrops") -> None:
        self.future_jobs += other.future_jobs
        self.invalid_period_jobs += other.invalid_period_jobs
        self.negative_experience_jobs += other.negative_experience_jobs


def _resolve_ends(end: np.ndarray, curr_date: DateMonth) -> np.ndarray:
    """End ordinals with an open end, NO_DATE, resolved to curr_date."""
    return np.where(end == NO_DATE, curr_date.ordinal, end)


def usable_stints(
    start: np.ndarray, end: np.ndarray, curr_date: DateMonth, drops: StintDrops
) -> np.ndarray:
    """The one rule for which stints count: a mask over start/end ordinals.

    A stint counts when it starts no later than the analysis date and does
    not end before it starts (an open end, NO_DATE, resolves to the analysis
    date). Every stage reads stints through here, by way of StintTable. The
    stints left out are counted in drops; one that fails both tests counts
    as a future start.
    """
    future = start > curr_date.ordinal
    invalid = (_resolve_ends(end, curr_date) < start) & ~future
    drops.future_jobs += int(np.count_nonzero(future))
    drops.invalid_period_jobs += int(np.count_nonzero(invalid))
    return ~(future | invalid)


NO_EXPERIENCE = -1  # StintTable.work_exp where work experience is undefined


def work_experience_months(end: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Per row, the months from graduation grad to end, or NO_EXPERIENCE
    without a graduation date (NO_DATE) or when end is before it."""
    months = end - grad
    return np.where((grad != NO_DATE) & (months >= 0), months, NO_EXPERIENCE)


@dataclass(frozen=True, eq=False, slots=True)
class StintTable:
    """The usable stints of a profile table at one analysis date, as columns.

    Row r is job row rows[r] of the ProfileTable source, held by user
    user[r] of that table, so that user_ids, user_code and skill_count are
    the source's. job_key, org_key and org index the distinct job_keys,
    org_keys and orgs, numbered in sorted order whatever the label ids. start
    and end are month ordinals, an open end resolved to curr_date. work_exp
    is the months from the user's graduation to the end, or NO_EXPERIENCE
    without a graduation date or when the stint ended before it. Rows keep
    listing order, profile by profile. drops counts the stints usable_stints
    left out and the usable ones that ended before graduation.

    A table of hop endpoints has no curr_date: its source holds one
    single-job user per endpoint, every endpoint is a row, open ends read
    NO_DATE and work_exp is NO_EXPERIENCE throughout. The arrays are
    read-only.
    """

    curr_date: DateMonth | None
    source: ProfileTable
    rows: np.ndarray  # intp
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

    @classmethod
    def of(
        cls, profiles: "Iterable[UserProfile] | StintTable", curr_date: DateMonth
    ) -> "StintTable":
        """The table of the profiles' usable stints; a table is returned as is.

        profiles may be a ProfileTable or UserProfile objects, which are
        packed into one (ProfileTable.of). One usable_stints pass over all
        their jobs. A StintTable built for another analysis date raises
        ValueError.
        """
        if isinstance(profiles, StintTable):
            if profiles.curr_date != curr_date:
                raise ValueError(
                    f"stint table is for {profiles.curr_date}, not the analysis date {curr_date}"
                )
            return profiles
        source = ProfileTable.of(profiles)
        drops = StintDrops()
        rows = np.flatnonzero(usable_stints(source.start, source.end, curr_date, drops))
        end = _resolve_ends(source.end[rows], curr_date)
        grad = source.grad[source.user[rows]]
        work_exp = work_experience_months(end, grad)
        ended_before_grad = (grad != NO_DATE) & (work_exp == NO_EXPERIENCE)
        drops.negative_experience_jobs = int(np.count_nonzero(ended_before_grad))
        return _stint_table(curr_date, source, rows, end, work_exp, drops)

    @classmethod
    def of_endpoints(cls, user_ids: Sequence[str], jobs: Sequence[JobRecord]) -> "StintTable":
        """A table of hop endpoints: row r is jobs[r], held by user_ids[r]."""
        columns = ProfileColumns()
        for user_id, j in zip(user_ids, jobs):
            columns.add(user_id, NO_DATE, 0, (), columns.job(j))
        source = columns.table()
        n = len(source)
        return _stint_table(
            None, source, np.arange(n), source.end, np.full(n, NO_EXPERIENCE, np.int64),
            StintDrops(),
        )

    @property
    def user_ids(self) -> tuple[str, ...]:
        return self.source.user_id

    @property
    def user_code(self) -> np.ndarray:
        return self.source.user_code

    @property
    def skill_count(self) -> np.ndarray:
        return self.source.skill_count

    def __len__(self) -> int:
        return len(self.rows)

    def job(self, r: int) -> JobRecord:
        """Stint r as a JobRecord (see ProfileTable.job)."""
        return self.source.job(self.rows[r])

    def ends_at(self, curr_date: DateMonth) -> np.ndarray:
        """Each row's end ordinal with an open end resolved to curr_date."""
        if curr_date == self.curr_date:
            return self.end
        return _resolve_ends(self.source.end[self.rows], curr_date)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Where each of the runs of the given lengths starts, and the total."""
    out = np.zeros(len(counts) + 1, np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def _codes(values: Sequence) -> np.ndarray:
    """A code per value: the values numbered in order of first appearance."""
    codes: dict = {}
    return np.fromiter((codes.setdefault(v, len(codes)) for v in values), np.intp, len(values))


def label_ranks(labels: Sequence[str]) -> np.ndarray:
    """Each label id's position in the sorted order of the label strings."""
    rank = np.empty(len(labels), np.intp)
    rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return rank


def _sorted_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(code per value, index of a value with each code) for an int array.

    Codes number the distinct values in ascending order.
    """
    order, first, size = groups(values)
    codes = np.empty(len(values), np.intp)
    codes[order] = np.repeat(np.arange(len(first)), size)
    return codes, order[first]


def _stint_table(curr_date, source, rows, end, work_exp, drops) -> StintTable:
    # Keys are packed from label ranks, one int64 each, so that their codes
    # ascend as the key tuples sort.
    rank = label_ranks(source.labels)
    width = len(source.labels)
    title = source.title[rows]
    industry = source.industry[rows]
    organization = source.organization[rows]
    job_key, job_first = _sorted_codes(rank[title] * width + rank[industry])
    org_key, org_key_first = _sorted_codes(rank[title] * width + rank[organization])
    org, org_first = _sorted_codes(rank[organization])

    def labels(ids: np.ndarray) -> Iterator[str]:
        return map(source.labels.__getitem__, ids.tolist())

    user = source.user[rows]
    start = source.start[rows]
    read_only(rows, user, job_key, org_key, org, start, end, work_exp)
    return StintTable(
        curr_date,
        source,
        rows,
        user,
        job_key,
        tuple(map(JobKey, labels(title[job_first]), labels(industry[job_first]))),
        org_key,
        tuple(map(OrgJobKey, labels(title[org_key_first]), labels(organization[org_key_first]))),
        org,
        tuple(labels(organization[org_first])),
        start,
        end,
        work_exp,
        drops,
    )


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Index of each distinct value's first occurrence in a sorted array."""
    new = np.ones(len(ordered), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return np.flatnonzero(new)


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
    """Per item id below n_items, how many distinct who-codes occur with it.

    One sort of the packed key item * n_who + who, where n_who exceeds every
    who-code: a distinct key is a distinct (item, who) pair.
    """
    n_who = int(who.max(initial=0)) + 1
    pairs = np.sort(item * n_who + who)
    return np.bincount(pairs[run_starts(pairs)] // n_who, minlength=n_items)


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
    pagerank_max_iter: int | None = None  # None: the bound of pagerank_iteration_cap

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
        if self.pagerank_max_iter is not None and self.pagerank_max_iter < 1:
            raise ValueError("pagerank_max_iter must be a positive integer")

    @property
    def pagerank_iteration_cap(self) -> int:
        """pagerank_max_iter if set, else the steps that make PageRank converge.

        Each PageRank step is an L1 contraction by 1 - teleport_prob, so the
        change after step k is at most 2 * (1 - teleport_prob) ** (k - 1):
        ceil(1 + ln(tol / 2) / ln(1 - teleport_prob)) steps bring it below
        pagerank_tol (119 at the defaults).
        """
        if self.pagerank_max_iter is not None:
            return self.pagerank_max_iter
        steps = 1 + math.log(self.pagerank_tol / 2) / math.log(1 - self.teleport_prob)
        return max(1, math.ceil(steps))
