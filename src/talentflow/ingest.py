"""Profile ingestion from line-delimited JSON.

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
user_id keeps the first occurrence and rejects the rest (DUPLICATE_ID).

Because industry is treated as a function of organization, conflicting
industries for one organization are repaired to the majority industry
(ties broken lexicographically); the number of rewritten job records is
reported in IngestReport.industry_repairs.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

from .model import (
    DateMonth,
    InvalidLabelError,
    JobRecord,
    UserProfile,
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


class _Interned:
    """One ingest call's table: each distinct raw label is normalized once,
    each distinct date text parsed once, and equal values share one object."""

    def __init__(self) -> None:
        self.labels: dict[str, str] = {}  # raw and normalized -> normalized
        self.dates: dict[str, DateMonth] = {}

    def label(self, raw: str) -> str:
        if (label := self.labels.get(raw)) is None:
            label = normalize_label(raw)
            label = self.labels[raw] = self.labels.setdefault(label, label)
        return label

    def date(self, text: str) -> DateMonth:
        return self.dates.get(text) or self.dates.setdefault(text, DateMonth.parse(text))


def _parse_date(value: object, where: str, memo: _Interned) -> DateMonth:
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}: expected YYYY-MM string, got {value!r}")
    try:
        return memo.date(value)
    except ValueError as exc:
        raise MalformedRecordError(f"{where}: {exc}") from exc


def _parse_grad_date(value: object, memo: _Interned) -> DateMonth | None:
    # A list of graduation dates is allowed; the latest one wins.
    if value is None:
        return None
    if isinstance(value, list):
        if not value:
            return None
        return max(_parse_date(v, "grad_date", memo) for v in value)
    return _parse_date(value, "grad_date", memo)


def _parse_label(value: object, where: str, memo: _Interned) -> str:
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}: expected string, got {value!r}")
    try:
        return memo.label(value)
    except InvalidLabelError as exc:
        raise MalformedRecordError(f"{where}: {exc}") from exc


def _parse_job(obj: object, where: str, memo: _Interned) -> JobRecord:
    if not isinstance(obj, dict):
        raise MalformedRecordError(f"{where}: expected object, got {obj!r}")
    end = obj.get("end")
    return JobRecord(
        title=_parse_label(obj.get("title"), f"{where}.title", memo),
        organization=_parse_label(obj.get("organization"), f"{where}.organization", memo),
        industry=_parse_label(obj.get("industry"), f"{where}.industry", memo),
        start=_parse_date(obj.get("start"), f"{where}.start", memo),
        end=None if end is None else _parse_date(end, f"{where}.end", memo),
    )


def parse_profile_line(line: str) -> UserProfile:
    """Parse one JSONL record into a UserProfile; raises MalformedRecordError."""
    return _parse_profile(line, _Interned())


def _parse_profile(line: str, memo: _Interned) -> UserProfile:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedRecordError(f"expected JSON object, got {type(obj).__name__}")

    user_id = obj.get("user_id")
    if not isinstance(user_id, str) or not user_id.strip():
        raise MalformedRecordError("user_id: missing or empty")

    education = obj.get("education_count", 0)
    if not isinstance(education, int) or isinstance(education, bool) or education < 0:
        raise MalformedRecordError(f"education_count: expected count >= 0, got {education!r}")

    raw_skills = obj.get("skills", [])
    if not isinstance(raw_skills, list):
        raise MalformedRecordError(f"skills: expected list, got {raw_skills!r}")
    skills = set()
    for s in raw_skills:
        if not isinstance(s, str):
            raise MalformedRecordError(f"skills: expected string entries, got {s!r}")
        try:
            skills.add(memo.label(s))
        except InvalidLabelError:
            continue  # blank skill strings are noise, not a reason to reject

    raw_jobs = obj.get("jobs", [])
    if not isinstance(raw_jobs, list):
        raise MalformedRecordError(f"jobs: expected list, got {raw_jobs!r}")
    jobs = tuple(_parse_job(j, f"jobs[{i}]", memo) for i, j in enumerate(raw_jobs))

    return UserProfile(
        user_id=user_id.strip(),
        grad_date=_parse_grad_date(obj.get("grad_date"), memo),
        skills=frozenset(skills),
        education_entries=education,
        jobs=jobs,
    )


def _repair_industries(profiles: list[UserProfile], report: IngestReport) -> list[UserProfile]:
    """Force industry to be a function of organization across the corpus.

    Majority industry per organization wins; ties break lexicographically.
    """
    votes: dict[str, Counter[str]] = defaultdict(Counter)
    for p in profiles:
        for j in p.jobs:
            votes[j.organization][j.industry] += 1

    canonical: dict[str, str] = {}
    for org, counter in votes.items():
        if len(counter) == 1:
            continue
        best = min(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        canonical[org] = best[0]

    if not canonical:
        return profiles

    repaired: list[UserProfile] = []
    for p in profiles:
        new_jobs = []
        changed = False
        for j in p.jobs:
            want = canonical.get(j.organization, j.industry)
            if want != j.industry:
                new_jobs.append(replace(j, industry=want))
                report.industry_repairs += 1
                changed = True
            else:
                new_jobs.append(j)
        repaired.append(replace(p, jobs=tuple(new_jobs)) if changed else p)
    return repaired


def ingest_profiles(path: str | Path) -> tuple[list[UserProfile], IngestReport]:
    """Read a JSONL profile corpus; returns (profiles, report).

    Output order matches input order. Blank lines are skipped without being
    counted.
    """
    report = IngestReport()
    profiles: list[UserProfile] = []
    seen_ids: set[str] = set()
    memo = _Interned()

    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            report.total_records += 1
            try:
                profile = _parse_profile(line, memo)
            except MalformedRecordError:
                report._reject(REASON_MALFORMED)
                continue
            if profile.user_id in seen_ids:
                report._reject(REASON_DUPLICATE_ID)
                continue
            seen_ids.add(profile.user_id)
            profiles.append(profile)

    profiles = _repair_industries(profiles, report)
    for p in profiles:
        if p.is_active:
            report.active_records += 1
        else:
            report.inactive_records += 1
    return profiles, report


def filter_active(profiles: list[UserProfile]) -> list[UserProfile]:
    """Keep exactly the active profiles, preserving order."""
    return [p for p in profiles if p.is_active]
