"""Profile ingestion from line-delimited JSON into a ProfileTable.

One JSON object per line, UTF-8:

    {"user_id": "u1",
     "grad_date": "2010-06",            # or null, or a list (latest wins)
     "education_count": 2,
     "skills": ["python", "sql"],
     "jobs": [{"title": "Engineer", "organization": "Acme",
               "industry": "Software", "start": "2010-07", "end": "2012-01"},
              {"title": "Manager", "organization": "Acme",
               "industry": "Software", "start": "2012-01", "end": null}]}

A null/missing job end means the job is still held. Malformed lines are
rejected individually (reason MALFORMED) and processing continues; a repeated
user_id keeps the first occurrence and rejects the rest (DUPLICATE_ID). A
line that json cannot decode is malformed, also one nested too deep or with
an integer literal too long to convert, and so is a record whose user_id or
job label cannot be encoded as UTF-8 (a lone surrogate escape such as
"\\ud800"); such a skill is dropped, as a blank one is.

Each accepted profile goes straight into a model.ProfileColumns, the one
builder of a ProfileTable: labels become integer ids, each distinct raw label
normalized once, and dates month ordinals, each distinct date text parsed
once. No UserProfile or JobRecord is built; the table builds them as views
when one is read.

Because industry is treated as a function of organization, conflicting
industries for one organization are repaired to the majority industry
(ties broken lexicographically); the number of rewritten job records is
reported in IngestReport.industry_repairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .model import (
    NO_DATE,
    DateMonth,
    InvalidLabelError,
    ProfileColumns,
    ProfileTable,
    UserProfile,
    groups,
    normalize_label,
)

REASON_MALFORMED = "MALFORMED"
REASON_DUPLICATE_ID = "DUPLICATE_ID"


class MalformedRecordError(ValueError):
    """A profile line that does not satisfy the input schema."""


@dataclass
class IngestReport:
    """Corpus accounting: total = active + inactive + rejected."""

    total_records: int = 0
    active_records: int = 0
    inactive_records: int = 0
    rejected_records: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    industry_repairs: int = 0

    def _reject(self, reason: str) -> None:
        self.rejected_records += 1
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1


class _Interned(ProfileColumns):
    """One ingest call's columns, which also code the raw input: each
    distinct raw label is normalized once and each distinct date text
    parsed once.

    ids maps each raw label too, to the id of its normalized form, so equal
    labels share one id and one string. ordinals maps date texts to month
    ordinals.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ordinals: dict[str, int] = {}

    def raw_label(self, raw: str) -> int:
        if (label_id := self.ids.get(raw)) is None:
            label_id = self.ids[raw] = self.label(normalize_label(raw))
        return label_id

    def date(self, text: str) -> int:
        if (ordinal := self.ordinals.get(text)) is None:
            ordinal = self.ordinals[text] = self.ordinal(DateMonth.parse(text))
        return ordinal


# The checked parsers name a bad field where + name, as in "jobs[2]" ".start".


def _date(value: object, memo: _Interned, where: str, name: str = "") -> int:
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}{name}: expected YYYY-MM string, got {value!r}")
    try:
        return memo.date(value)
    except ValueError as exc:
        raise MalformedRecordError(f"{where}{name}: {exc}") from exc


def _grad_date(value: object, memo: _Interned) -> int:
    # A list of graduation dates is allowed; the latest one wins.
    if value is None:
        return NO_DATE
    if isinstance(value, list):
        return max((_date(v, memo, "grad_date") for v in value), default=NO_DATE)
    return _date(value, memo, "grad_date")


def _label(value: object, memo: _Interned, where: str, name: str) -> int:
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}{name}: expected string, got {value!r}")
    try:
        return memo.raw_label(value)
    except InvalidLabelError as exc:
        raise MalformedRecordError(f"{where}{name}: {exc}") from exc


def _skills(raw: list, memo: _Interned) -> set[int]:
    skills = set()
    for s in raw:
        if not isinstance(s, str):
            raise MalformedRecordError(f"skills: expected string entries, got {s!r}")
        try:
            skills.add(memo.raw_label(s))
        except InvalidLabelError:
            continue  # blank skill strings are noise, not a reason to reject
    return skills


def _job(obj: object, where: str, memo: _Interned) -> tuple[int, int, int, int, int]:
    if not isinstance(obj, dict):
        raise MalformedRecordError(f"{where}: expected object, got {obj!r}")
    end = obj.get("end")
    return (
        _label(obj.get("title"), memo, where, ".title"),
        _label(obj.get("organization"), memo, where, ".organization"),
        _label(obj.get("industry"), memo, where, ".industry"),
        _date(obj.get("start"), memo, where, ".start"),
        NO_DATE if end is None else _date(end, memo, where, ".end"),
    )


# One parsed record: user id, graduation ordinal, education count, skill ids,
# and five ints per job (title, organization and industry ids, start, end).
_Record = tuple[str, int, int, set, list]


def _parse_record(line: str, memo: _Interned) -> _Record:
    """Validate one JSONL record; raises MalformedRecordError at the first fault."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer literal past the
        # int-to-str digit limit; RecursionError: nesting too deep to decode.
        raise MalformedRecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedRecordError(f"expected JSON object, got {type(obj).__name__}")

    user_id = obj.get("user_id")
    if not isinstance(user_id, str) or not user_id.strip():
        raise MalformedRecordError("user_id: missing or empty")
    if not user_id.isascii():
        try:
            user_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedRecordError(f"user_id: not encodable as UTF-8: {user_id!r}") from exc

    education = obj.get("education_count", 0)
    if not isinstance(education, int) or isinstance(education, bool) or education < 0:
        raise MalformedRecordError(f"education_count: expected count >= 0, got {education!r}")

    # Labels and date texts seen before are a dict lookup each. Anything
    # else -- a new or blank label, a new date, a wrong type -- misses the
    # lookup and takes the checked path, which raises the diagnostic for
    # the first bad field.
    ids, ordinals = memo.ids, memo.ordinals
    raw_skills = obj.get("skills", [])
    if not isinstance(raw_skills, list):
        raise MalformedRecordError(f"skills: expected list, got {raw_skills!r}")
    try:
        skills = {ids[s] for s in raw_skills}
    except (KeyError, TypeError):
        skills = _skills(raw_skills, memo)

    raw_jobs = obj.get("jobs", [])
    if not isinstance(raw_jobs, list):
        raise MalformedRecordError(f"jobs: expected list, got {raw_jobs!r}")
    jobs: list[int] = []
    for i, job in enumerate(raw_jobs):
        if type(job) is dict:
            get = job.get
            end = get("end")
            try:
                jobs += (
                    ids[get("title")], ids[get("organization")], ids[get("industry")],
                    ordinals[get("start")], NO_DATE if end is None else ordinals[end],
                )
                continue
            except (KeyError, TypeError):
                pass
        jobs += _job(job, f"jobs[{i}]", memo)

    return user_id.strip(), _grad_date(obj.get("grad_date"), memo), education, skills, jobs


def _repair_industries(
    organization: np.ndarray, industry: np.ndarray, labels: list[str], report: IngestReport
) -> np.ndarray:
    """Force industry to be a function of organization across the corpus.

    A vote count over (organization, industry) id pairs: the majority
    industry per organization wins, ties to the lexicographically smallest
    label. Returns the rewritten industry column.
    """
    order, first, votes = groups(organization, industry)
    pair = order[first]
    best: dict[int, tuple[int, str, int]] = {}
    for org, ind, n in zip(organization[pair].tolist(), industry[pair].tolist(), votes.tolist()):
        vote = (-n, labels[ind], ind)
        if org not in best or vote < best[org]:
            best[org] = vote
    canonical = np.zeros(len(labels), np.int64)
    canonical[list(best)] = [vote[2] for vote in best.values()]
    want = canonical[organization]
    report.industry_repairs += int(np.count_nonzero(want != industry))
    return want


def parse_profile_line(line: str) -> UserProfile:
    """Parse one JSONL record into a UserProfile; raises MalformedRecordError."""
    columns = _Interned()
    columns.add(*_parse_record(line, columns))
    return columns.table()[0]


def ingest_profiles(path: str | Path) -> tuple[ProfileTable, IngestReport]:
    """Read a JSONL profile corpus; returns (profiles, report).

    The profiles are a ProfileTable, a read-only sequence of UserProfile
    views in input order. Blank lines are skipped without being counted.
    """
    report = IngestReport()
    columns = _Interned()

    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            report.total_records += 1
            try:
                record = _parse_record(line, columns)
            except MalformedRecordError:
                report._reject(REASON_MALFORMED)
                continue
            if record[0] in columns.seen_ids:
                report._reject(REASON_DUPLICATE_ID)
                continue
            columns.add(*record)

    profiles = columns.table(
        lambda organization, industry: _repair_industries(
            organization, industry, columns.labels, report
        )
    )
    report.active_records = int(np.count_nonzero(profiles.is_active))
    report.inactive_records = len(profiles) - report.active_records
    return profiles, report


def filter_active(profiles: Iterable[UserProfile]) -> ProfileTable:
    """Keep exactly the active profiles, preserving order, as a ProfileTable.

    A table whose profiles are all active is returned as is.
    """
    table = ProfileTable.of(profiles)
    active = table.is_active
    return table if active.all() else table.take(active)
