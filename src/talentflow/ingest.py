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

Lines end at LF, CRLF or a lone CR, as in text mode, and at nothing else;
lines of whitespace only are skipped. A null/missing job end means the job
is still held. Malformed lines are rejected individually (reason MALFORMED)
and processing continues; a repeated user_id keeps the first occurrence and
rejects the rest (DUPLICATE_ID). A line that is not valid UTF-8 is
malformed, so is one json cannot decode, also one nested too deep or with
an integer literal too long to convert, and so is a record whose user_id or
job label cannot be encoded as UTF-8 (a lone surrogate escape such as
"\\ud800"); such a skill is dropped, as a blank one is.

Each accepted profile goes straight into a model.ProfileColumns, the one
builder of a ProfileTable: labels become integer ids, each distinct raw label
normalized once, and dates month ordinals, each distinct date text parsed
once. One parser validates and codes each record: it codes a field in one
pass and, only where that pass fails, again field by field to take the
field or name its fault. No UserProfile or JobRecord is built; the table
builds them as views when one is read.

A file is read in parts, cut at line starts: one per usable CPU (those
os.sched_getaffinity allows), but no more than one per MiB. The caller
reads the first part; each other part is read in a child process forked
for it, which sends back its columns as packed int64 arrays, with its
labels, months and counts, through a pipe. The parts are merged in input
order: a later part's labels are coded through the ids of the parts before
it, which gives the ids one pass gives, and a user id that an earlier part
holds is a DUPLICATE_ID. A child that fails, or sends a short result, has
its part read again in the caller; every child is reaped before ingest
returns or raises. Ingest reads one part, in the caller, when the file is
smaller than 2 MiB, when it is not a regular file (a FIFO or /dev/stdin,
read to its end), when another thread is live (a forked child would
inherit locks that thread holds), or where the platform has no os.fork or
os.sched_getaffinity. The caller's peak memory (RUSAGE_SELF) leaves out the
children's, which RUSAGE_CHILDREN reports.

Because industry is treated as a function of organization, conflicting
industries for one organization are repaired to the majority industry
(ties broken lexicographically); the number of rewritten job records is
reported in IngestReport.industry_repairs.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import stat
import threading
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .model import (
    NO_DATE,
    DateMonth,
    InvalidLabelError,
    ProfileColumns,
    ProfileTable,
    UserProfile,
    groups,
    label_ranks,
    normalize_label,
    run_starts,
)

REASON_MALFORMED = "MALFORMED"
REASON_DUPLICATE_ID = "DUPLICATE_ID"

_PART_BYTES = 1 << 20  # a file has at most one part per this many bytes
_BLOCK_BYTES = 1 << 18  # how much a part reads at once
_JOB_FIELDS = itemgetter("title", "organization", "industry", "start")


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

    def _reject(self, reason: str, n: int = 1) -> None:
        self.rejected_records += n
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + n


class _Codes(dict):
    """Raw text -> its code: code(parse(text)), computed once per text.

    _codes gives the two that code a part's input into its ProfileColumns:
    raw labels to label ids (parse is normalize_label, so equal labels share
    one id and one string) and date texts to month ordinals (parse is
    DateMonth.parse). A key that is not a string raises KeyError, a text
    that parse refuses its ValueError; neither is entered.
    """

    def __init__(self, parse: Callable[[str], Any], code: Callable[[Any], int]) -> None:
        super().__init__()
        self.parse = parse
        self.code = code

    def __missing__(self, text: object) -> int:
        if type(text) is not str:
            raise KeyError(text)
        value = self[text] = self.code(self.parse(text))
        return value


def _codes(columns: ProfileColumns) -> tuple[_Codes, _Codes]:
    """The label and date codes of columns."""
    return _Codes(normalize_label, columns.label), _Codes(DateMonth.parse, columns.ordinal)


# The per-field parsers, which _checked falls back to for a field its one
# pass cannot code, name a bad field where + name, as in "jobs[2]" ".start".


def _date(value: object, dates: _Codes, where: str, name: str = "") -> int:
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}{name}: expected YYYY-MM string, got {value!r}")
    try:
        return dates[value]
    except ValueError as exc:
        raise MalformedRecordError(f"{where}{name}: {exc}") from exc


def _grad_date(value: object, dates: _Codes) -> int:
    # A list of graduation dates is allowed; the latest one wins.
    if value is None:
        return NO_DATE
    if isinstance(value, list):
        return max((_date(v, dates, "grad_date") for v in value), default=NO_DATE)
    return _date(value, dates, "grad_date")


def _label(value: object, labels: _Codes, where: str, name: str) -> int:
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}{name}: expected string, got {value!r}")
    try:
        return labels[value]
    except InvalidLabelError as exc:
        raise MalformedRecordError(f"{where}{name}: {exc}") from exc


def _skills(raw: list, labels: _Codes) -> dict[int, None]:
    skills = {}
    for s in raw:
        if not isinstance(s, str):
            raise MalformedRecordError(f"skills: expected string entries, got {s!r}")
        try:
            skills[labels[s]] = None
        except InvalidLabelError:
            continue  # blank skill strings are noise, not a reason to reject
    return skills


def _job(
    obj: object, where: str, labels: _Codes, dates: _Codes
) -> tuple[int, int, int, int, int]:
    if not isinstance(obj, dict):
        raise MalformedRecordError(f"{where}: expected object, got {obj!r}")
    end = obj.get("end")
    return (
        _label(obj.get("title"), labels, where, ".title"),
        _label(obj.get("organization"), labels, where, ".organization"),
        _label(obj.get("industry"), labels, where, ".industry"),
        _date(obj.get("start"), dates, where, ".start"),
        NO_DATE if end is None else _date(end, dates, where, ".end"),
    )


# One parsed record: user id, graduation ordinal, education count, skill ids
# in order of first appearance, and five ints per job (title, organization
# and industry ids, start, end).
_Record = tuple[str, int, int, dict, list]


def _checked(obj: object, labels: _Codes, dates: _Codes) -> _Record:
    """Validate and code one decoded record; raises MalformedRecordError at
    the first fault, in the order user_id, education_count, skills, jobs,
    grad_date.

    Each skill list, each job and the graduation date is coded in one pass.
    Only a pass that raises KeyError, TypeError or ValueError goes through
    the per-field parsers, which code again, from the cache, what it coded,
    in the same order, and then take the field or name its fault.
    """
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

    raw_skills = obj.get("skills", [])
    if not isinstance(raw_skills, list):
        raise MalformedRecordError(f"skills: expected list, got {raw_skills!r}")
    try:
        skills = dict.fromkeys(map(labels.__getitem__, raw_skills))
    except (KeyError, TypeError, ValueError):
        skills = _skills(raw_skills, labels)

    raw_jobs = obj.get("jobs", [])
    if not isinstance(raw_jobs, list):
        raise MalformedRecordError(f"jobs: expected list, got {raw_jobs!r}")
    jobs: list[int] = []
    for i, job in enumerate(raw_jobs):
        try:
            title, organization, industry, start = _JOB_FIELDS(job)
            end = job.get("end")
            jobs += (
                labels[title], labels[organization], labels[industry],
                dates[start], NO_DATE if end is None else dates[end],
            )
        except (KeyError, TypeError, ValueError):
            jobs += _job(job, f"jobs[{i}]", labels, dates)

    grad = obj.get("grad_date")
    try:
        grad = NO_DATE if grad is None else dates[grad]
    except (KeyError, TypeError, ValueError):
        grad = _grad_date(grad, dates)
    return user_id.strip(), grad, education, skills, jobs


def _decode(line: str) -> object:
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer literal past the
        # int-to-str digit limit; RecursionError: nesting too deep to decode.
        raise MalformedRecordError(f"invalid JSON: {exc}") from exc


def _lines(fh: BinaryIO, size: int | None) -> Iterator[bytes]:
    """The lines of fh's next size bytes, or up to its end when size is None.

    Lines end at LF, CRLF or a lone CR, as in text mode, and keep their end.
    A CRLF that a block or part boundary cuts reads as a line and a blank
    line, and blank lines count for nothing.
    """
    head: list[bytes] = []  # a line that began in an earlier block
    while size is None or size > 0:
        block = fh.read(_BLOCK_BYTES if size is None else min(size, _BLOCK_BYTES))
        if not block:
            break
        if size is not None:
            size -= len(block)
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if not cut:
            head.append(block)
            continue
        head.append(block[:cut])
        yield from b"".join(head).splitlines(True)
        head = [block[cut:]]
    if tail := b"".join(head):
        yield tail


def _read_part(
    path: str | Path, start: int, stop: int | None
) -> tuple[ProfileColumns, IngestReport]:
    """The profiles on the lines that start in bytes start:stop of the file,
    or from start to its end when stop is None, with their counts.

    Each line is decoded as UTF-8 and as JSON, and validated and coded by
    _checked. A repeated user id is rejected within the part only.
    """
    columns = ProfileColumns()
    report = IngestReport()
    labels, dates = _codes(columns)
    seen, add = columns.seen_ids, columns.add
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        for line in _lines(fh, None if stop is None else stop - start):
            try:
                text = line.decode()
            except UnicodeDecodeError:
                report._reject(REASON_MALFORMED)
                continue
            if text.isspace():
                continue
            try:
                record = _checked(_decode(text), labels, dates)
            except MalformedRecordError:
                report._reject(REASON_MALFORMED)
                continue
            if record[0] in seen:
                report._reject(REASON_DUPLICATE_ID)
                continue
            add(*record)
    report.total_records = len(columns.user_id) + report.rejected_records
    return columns, report


def _repair_industries(
    organization: np.ndarray, industry: np.ndarray, labels: list[str], report: IngestReport
) -> np.ndarray:
    """Force industry to be a function of organization across the corpus.

    A vote count over (organization, industry) id pairs: the majority
    industry per organization wins, ties to the lexicographically smallest
    label. Returns the rewritten industry column.
    """
    order, first, votes = groups(organization, industry)
    org, ind = organization[order[first]], industry[order[first]]
    # Each organization's pairs by most votes, then smallest label: the
    # first of its run wins.
    best = np.lexsort((label_ranks(labels)[ind], -votes, org))
    best = best[run_starts(org[best])]
    canonical = np.zeros(len(labels), np.int64)
    canonical[org[best]] = ind[best]
    want = canonical[organization]
    report.industry_repairs += int(np.count_nonzero(want != industry))
    return want


def parse_profile_line(line: str) -> UserProfile:
    """Parse one JSONL record into a UserProfile; raises MalformedRecordError."""
    columns = ProfileColumns()
    columns.add(*_checked(_decode(line), *_codes(columns)))
    return columns.table()[0]


def _cpus() -> int:
    """How many processes may read parts: the CPUs this process may run
    on, or 1 where it cannot fork at all or safely (another thread is live)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _part_starts(path: str | Path) -> list[int]:
    """Where each part of the file starts: byte offsets of line starts, the
    first 0. One part per _PART_BYTES, but no more than _cpus(), and one
    unless path is a regular file."""
    info = os.stat(path)
    size = info.st_size
    k = min(_cpus(), size // _PART_BYTES) if stat.S_ISREG(info.st_mode) else 1
    starts = [0]
    if k > 1:
        with open(path, "rb") as fh:
            for i in range(1, k):
                at = max(size * i // k, starts[-1])
                fh.seek(at)
                at += len(next(_lines(fh, None), b""))
                if at >= size:
                    break
                starts.append(at)
    return starts


# A part as a child sends it: its user ids; its ProfileColumns.arrays() as
# packed int64 bytes; its labels and month ordinals; and its record total and
# rejection counts.
_Packed = tuple[list, list, list, list, int, dict]


def _packed(columns: ProfileColumns, report: IngestReport) -> _Packed:
    return (columns.user_id, [a.tobytes() for a in columns.arrays()], columns.labels,
            list(columns.months), report.total_records, report.rejection_reasons)


def _pin(cpus: set[int]) -> None:
    """Run this process on cpus only, where the system lets it.

    Left to itself, the scheduler may keep a freshly forked child on its
    parent's CPU for the whole of a read that lasts a fraction of a second,
    and the two then take turns.
    """
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _fork(
    path: str | Path, start: int, stop: int | None, cpu: int
) -> tuple[int, BinaryIO] | None:
    """A child, on the given CPU, that reads part start:stop of the file and
    sends it packed: (its pid, the pipe to read the part from), or None if
    none started."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            _pin({cpu})
            with open(write_fd, "wb") as pipe:
                pickle.dump(_packed(*_read_part(path, start, stop)), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)  # a child never returns into its parent's code
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pid: int, pipe: BinaryIO) -> _Packed | None:
    """The part a child sent, or None if it failed or its result is short;
    reaps the child."""
    try:
        with pipe:
            part = pickle.load(pipe)
    except (pickle.UnpicklingError, EOFError):  # the pipe closed early
        part = None
    _, status = os.waitpid(pid, 0)
    return part if status == 0 else None


def _append(columns: ProfileColumns, report: IngestReport, part: _Packed) -> None:
    """Append a later part to the earlier parts' columns and report.

    Its labels are coded through columns.label, in the order the part met
    them, which gives the ids one pass over the whole file gives. A user id
    an earlier part holds is a DUPLICATE_ID.
    """
    user_id, ints, labels, months, total, reasons = part
    arrays = [np.frombuffer(b, np.int64) for b in ints]
    ints.clear()  # the arrays hold the bytes they still need
    code = np.array([columns.label(label) for label in labels], np.int64)
    for ordinal in months:
        columns.months.setdefault(ordinal, DateMonth.of_ordinal(ordinal))
    report.total_records += total
    for reason, n in reasons.items():
        report._reject(reason, n)
    seen = columns.seen_ids
    keep = np.array([u not in seen for u in user_id], bool)
    if dropped := len(keep) - int(np.count_nonzero(keep)):
        report._reject(REASON_DUPLICATE_ID, dropped)
        user_id = list(compress(user_id, keep.tolist()))
        skill_count, job_count = arrays[2], arrays[4]
        rows = (keep,) * 3 + (np.repeat(keep, skill_count), keep) + (np.repeat(keep, job_count),) * 5
        arrays = [a[r] for a, r in zip(arrays, rows)]
    for i in (3, 5, 6, 7):  # skill, title, organization and industry ids
        arrays[i] = code[arrays[i]]
    columns.extend(user_id, arrays)


def ingest_profiles(path: str | Path) -> tuple[ProfileTable, IngestReport]:
    """Read a JSONL profile corpus; returns (profiles, report).

    The profiles are a ProfileTable, a read-only sequence of UserProfile
    views in input order. Blank lines are skipped without being counted.
    """
    starts = _part_starts(path)
    stops = [*starts[1:], None]
    # Part i is read on CPU i, while the caller reads part 0 (its own CPU
    # mask is restored after).
    cpus = sorted(os.sched_getaffinity(0)) if len(starts) > 1 else []
    children: dict[int, tuple[int, BinaryIO]] = {}  # part -> child not yet reaped
    try:
        for i in range(1, len(starts)):
            if (child := _fork(path, starts[i], stops[i], cpus[i % len(cpus)])) is not None:
                children[i] = child
        if cpus:
            _pin({cpus[0]})
        try:
            columns, report = _read_part(path, starts[0], stops[0])
            columns.arrays()  # packed while the children pack theirs
        finally:
            if cpus:
                _pin(set(cpus))
        for i in range(1, len(starts)):
            part = _receive(*children[i]) if i in children else None
            children.pop(i, None)
            if part is None:  # the child failed: read its part here
                part = _packed(*_read_part(path, starts[i], stops[i]))
            _append(columns, report, part)
            del part  # its arrays are in columns now
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

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
