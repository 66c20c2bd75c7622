"""Columnar ingest against the object parser it replaced.

The reference below is the per-object ingest: it parses each line into a
UserProfile of JobRecords and repairs industries by rewriting those
objects. ingest_profiles must agree with it exactly -- the same profiles,
the same IngestReport, and for every line the same profile or the same
MalformedRecordError text from parse_profile_line -- on JSONL corpora with
invalid JSON (also nested too deep or with too long an integer), non-object
lines, wrongly typed fields, bad dates, blank skills, text UTF-8 cannot
encode, duplicate ids, blank lines, label variants and industry conflicts
with ties -- and number labels in the order it first met them. A corpus cut
into parts, each read by its own process, must give the table a single
part gives, column by column.
"""

import json
import os
import pickle
import random
import threading
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talentflow import ingest
from talentflow.cli import infer_curr_date
from talentflow.ingest import (
    REASON_DUPLICATE_ID,
    REASON_MALFORMED,
    IngestReport,
    MalformedRecordError,
    filter_active,
    ingest_profiles,
    parse_profile_line,
)
from talentflow.model import (
    DateMonth,
    InvalidLabelError,
    JobRecord,
    ProfileTable,
    StintTable,
    UserProfile,
)
from helpers import random_profile
from test_model import ref_normalize_label


# --- reference implementation -------------------------------------------------

class RefInterned:
    def __init__(self):
        self.labels = {}
        self.dates = {}
        self.order = []  # normalized labels in the order they were first met

    def label(self, raw):
        if (label := self.labels.get(raw)) is None:
            label = ref_normalize_label(raw)
            if label not in self.labels:
                self.order.append(label)
            label = self.labels[raw] = self.labels.setdefault(label, label)
        return label

    def date(self, text):
        return self.dates.get(text) or self.dates.setdefault(text, DateMonth.parse(text))


def ref_parse_date(value, where, memo):
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}: expected YYYY-MM string, got {value!r}")
    try:
        return memo.date(value)
    except ValueError as exc:
        raise MalformedRecordError(f"{where}: {exc}") from exc


def ref_parse_grad_date(value, memo):
    if value is None:
        return None
    if isinstance(value, list):
        if not value:
            return None
        return max(ref_parse_date(v, "grad_date", memo) for v in value)
    return ref_parse_date(value, "grad_date", memo)


def ref_parse_label(value, where, memo):
    if not isinstance(value, str):
        raise MalformedRecordError(f"{where}: expected string, got {value!r}")
    try:
        return memo.label(value)
    except InvalidLabelError as exc:
        raise MalformedRecordError(f"{where}: {exc}") from exc


def ref_parse_job(obj, where, memo):
    if not isinstance(obj, dict):
        raise MalformedRecordError(f"{where}: expected object, got {obj!r}")
    end = obj.get("end")
    return JobRecord(
        title=ref_parse_label(obj.get("title"), f"{where}.title", memo),
        organization=ref_parse_label(obj.get("organization"), f"{where}.organization", memo),
        industry=ref_parse_label(obj.get("industry"), f"{where}.industry", memo),
        start=ref_parse_date(obj.get("start"), f"{where}.start", memo),
        end=None if end is None else ref_parse_date(end, f"{where}.end", memo),
    )


def ref_parse_profile(line, memo):
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedRecordError(f"expected JSON object, got {type(obj).__name__}")
    user_id = obj.get("user_id")
    if not isinstance(user_id, str) or not user_id.strip():
        raise MalformedRecordError("user_id: missing or empty")
    try:
        user_id.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedRecordError(f"user_id: not encodable as UTF-8: {user_id!r}") from None
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
            continue
    raw_jobs = obj.get("jobs", [])
    if not isinstance(raw_jobs, list):
        raise MalformedRecordError(f"jobs: expected list, got {raw_jobs!r}")
    jobs = tuple(ref_parse_job(j, f"jobs[{i}]", memo) for i, j in enumerate(raw_jobs))
    return UserProfile(
        user_id=user_id.strip(),
        grad_date=ref_parse_grad_date(obj.get("grad_date"), memo),
        skills=frozenset(skills),
        education_entries=education,
        jobs=jobs,
    )


def ref_repair_industries(profiles, report):
    votes = defaultdict(Counter)
    for p in profiles:
        for j in p.jobs:
            votes[j.organization][j.industry] += 1
    canonical = {}
    for org, counter in votes.items():
        if len(counter) > 1:
            canonical[org] = min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    repaired = []
    for p in profiles:
        jobs = []
        for j in p.jobs:
            want = canonical.get(j.organization, j.industry)
            if want != j.industry:
                j = replace(j, industry=want)
                report.industry_repairs += 1
            jobs.append(j)
        repaired.append(replace(p, jobs=tuple(jobs)))
    return repaired


def ref_ingest_profiles(path, memo=None):
    report = IngestReport()
    profiles, seen = [], set()
    memo = RefInterned() if memo is None else memo
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            report.total_records += 1
            try:
                profile = ref_parse_profile(line, memo)
            except MalformedRecordError:
                report._reject(REASON_MALFORMED)
                continue
            if profile.user_id in seen:
                report._reject(REASON_DUPLICATE_ID)
                continue
            seen.add(profile.user_id)
            profiles.append(profile)
    profiles = ref_repair_industries(profiles, report)
    for p in profiles:
        if p.is_active:
            report.active_records += 1
        else:
            report.inactive_records += 1
    return profiles, report


def ref_parse_line(line):
    try:
        return ref_parse_profile(line, RefInterned())
    except MalformedRecordError as exc:
        return str(exc)


def parse_line(line):
    try:
        return parse_profile_line(line)
    except MalformedRecordError as exc:
        return str(exc)


# --- corpora --------------------------------------------------------------------

WRONG = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(0, 2),
    st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.just("k"), st.integers(0, 1)),
)
# Case and whitespace variants of a few labels, and non-ASCII case.
TITLES = st.sampled_from(["engineer", "Engineer ", "analyst", "Señor lead", "señor  LEAD"])
ORGS = st.sampled_from(["Acme", "acme", " ACME ", "acme\t", "Globex", "globex", "Initech"])
INDUSTRIES = st.sampled_from(["Tech", "tech ", "Finance", "FINANCE", "fin"])
SKILLS = st.sampled_from(["python", "Python", " sql", "SQL", "", "   ", "sql \udfff"])
# Blank text, and a lone surrogate, which UTF-8 cannot encode.
BLANK = st.sampled_from(["", "   ", "\t", "lead \ud800"])
DATES = st.sampled_from(["2009-12", "2010-01", "2010-07", "2011-03", "2012-01", "2015-06"])
BAD_DATES = st.sampled_from([
    "2010-1", "2010-13", "2010-00", "10-01", "2010/01", "", "2010-01 ", "2010-01\n",
    "\u0662\u0660\u0661\u0660-\u0660\u0661", "\uff12\uff10\uff11\uff10-\uff10\uff11",
])
# Lines json.loads fails on with RecursionError and with ValueError.
UNDECODABLE = ["[" * 100_000, '{"user_id": "u1", "education_count": 1' + "0" * 4_301 + "}"]


@st.composite
def job_st(draw):
    job = {"title": draw(TITLES), "organization": draw(ORGS), "industry": draw(INDUSTRIES),
           "start": draw(DATES)}
    end = draw(st.one_of(st.none(), DATES))
    if end is not None or draw(st.booleans()):
        job["end"] = end
    return job


@st.composite
def fault_st(draw, record):
    """Make one field of the record wrong, in place."""
    jobs = record.get("jobs")
    if not isinstance(jobs, list):
        jobs = []
    objects = [i for i, j in enumerate(jobs) if isinstance(j, dict)]
    where = draw(st.sampled_from(
        ["user_id", "education_count", "grad_date", "skills", "jobs"] + ["job"] * 6 * bool(objects)
    ))
    if where == "user_id":
        record[where] = draw(st.one_of(BLANK, WRONG))
    elif where == "education_count":
        record[where] = draw(st.one_of(st.booleans(), st.integers(-3, -1), WRONG))
    elif where == "grad_date":
        # Bad dates, also inside lists that mix them with good ones.
        record[where] = draw(st.one_of(
            BAD_DATES, WRONG, st.lists(st.one_of(DATES, BAD_DATES, WRONG), min_size=1, max_size=3)
        ))
    elif where == "skills":
        record[where] = draw(st.one_of(
            WRONG, st.lists(st.one_of(SKILLS, WRONG), min_size=1, max_size=3)
        ))
    elif where == "jobs":
        record[where] = draw(WRONG)
    else:
        i = draw(st.sampled_from(objects))
        name = draw(st.sampled_from(["title", "organization", "industry", "start", "end", None]))
        if name is None:
            jobs[i] = draw(WRONG)
        elif name in ("start", "end"):
            jobs[i][name] = draw(st.one_of(BAD_DATES, WRONG))
        else:
            jobs[i][name] = draw(st.one_of(BLANK, WRONG))


@st.composite
def record_st(draw):
    record = {
        "user_id": draw(st.sampled_from(["u1", "u2", "u3", "u4", " u1 ", "u5", "u6", "u7\udc80"])),
        "grad_date": draw(st.one_of(st.none(), DATES, st.lists(DATES, max_size=3))),
        "education_count": draw(st.integers(0, 2)),
        "skills": draw(st.lists(SKILLS, max_size=3)),
        "jobs": draw(st.lists(job_st(), max_size=4)),
    }
    for name in ("grad_date", "education_count", "skills", "jobs"):
        if draw(st.integers(0, 9)) == 0:
            del record[name]
    # None, one or two wrong fields: the first in parse order is the one reported.
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        draw(fault_st(record))
    return record


LINE = st.one_of(
    record_st().map(json.dumps),
    record_st().map(json.dumps),
    record_st().map(json.dumps),
    record_st().map(json.dumps),
    st.sampled_from(["{not json", "[1, 2]", "3", '"u1"', "null", "", "   ", "\t", *UNDECODABLE]),
)


def write_lines(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


# --- equality with the reference ------------------------------------------------

@given(st.lists(LINE, max_size=12), DATES)
@settings(max_examples=300, deadline=None)
def test_ingest_equals_the_object_reference(tmp_path_factory, lines, curr):
    path = write_lines(tmp_path_factory, lines)
    profiles, report = ingest_profiles(path)
    assert_equals_the_reference(path, profiles, report, curr)
    for line in lines:
        if line.strip():
            assert parse_line(line) == ref_parse_line(line)


# Line ends, each of which a part or block cut may fall after or inside.
ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@given(st.lists(st.tuples(LINE, ENDS), max_size=12), DATES, st.integers(2, 4),
       st.sampled_from([3, 64, 1 << 18]))
@settings(max_examples=200, deadline=None)
def test_ingest_in_parts_equals_the_object_reference(
    tmp_path_factory, lines, curr, parts, block
):
    # A part size of a few bytes cuts even these small corpora into up to
    # four parts, so that duplicate ids, malformed lines and CRLF fall on
    # part boundaries, and small blocks put line ends on block boundaries.
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    path.write_bytes("".join(line + end for line, end in lines).encode("utf-8"))
    whole, whole_report = ingest_profiles(path)
    with patch.object(ingest, "_PART_BYTES", 5), patch.object(ingest, "_cpus", lambda: parts), \
            patch.object(ingest, "_BLOCK_BYTES", block):
        profiles, report = ingest_profiles(path)
    assert report == whole_report
    assert_same_columns(profiles, whole)
    assert_equals_the_reference(path, profiles, report, curr)


def assert_equals_the_reference(path, profiles, report, curr):
    memo = RefInterned()
    want, want_report = ref_ingest_profiles(path, memo)
    assert isinstance(profiles, ProfileTable)
    assert profiles == want and list(profiles) == want
    assert report == want_report
    # Label ids number labels in the order parsing first met them, also
    # those of records rejected later; months hold the dates it met, in
    # that order, and none that follows a record's first fault.
    assert profiles.labels == tuple(memo.order)
    assert list(profiles.months) == list(dict.fromkeys(d.ordinal for d in memo.dates.values()))
    assert filter_active(profiles) == [p for p in want if p.is_active]
    if want and any(p.grad_date or p.jobs for p in want):
        assert infer_curr_date(profiles) == max(
            [p.grad_date for p in want if p.grad_date]
            + [d for p in want for j in p.jobs for d in (j.start, j.end) if d]
        )

    # Accounting identities.
    assert report.total_records == (
        report.active_records + report.inactive_records + report.rejected_records
    )
    assert sum(report.rejection_reasons.values()) == report.rejected_records
    stints = StintTable.of(profiles, DateMonth.parse(curr))
    assert len(profiles.user) == sum(len(p.jobs) for p in want) == (
        len(stints) + stints.drops.future_jobs + stints.drops.invalid_period_jobs
    )


COLUMNS = ("user_code", "grad", "education", "skill_start", "skill", "user", "title",
           "organization", "industry", "start", "end", "job_start")


def assert_same_columns(table, other):
    """The same labels, in the same id order, ids, months and columns."""
    assert table.labels == other.labels
    assert table.user_id == other.user_id
    assert table.months == other.months
    for name in COLUMNS:
        assert np.array_equal(getattr(table, name), getattr(other, name)), name


# --- reading in parts -----------------------------------------------------------

def split_corpus(tmp_path):
    """About 20 kB of lines with repeated ids, malformed lines and mixed ends."""
    rng = random.Random(3)
    lines = []
    for k in range(150):
        p = random_profile(rng, f"u{rng.randrange(120)}")
        row = {"user_id": p.user_id, "grad_date": p.grad_date and str(p.grad_date),
               "education_count": p.education_entries, "skills": sorted(p.skills),
               "jobs": [{"title": j.title.title(), "organization": f" {j.organization}",
                         "industry": j.industry, "start": str(j.start),
                         "end": j.end and str(j.end)} for j in p.jobs]}
        lines.append("{not json" if k % 37 == 5 else json.dumps(row))
        lines.append(rng.choice(["\n", "\r\n", "\r"]))
    path = tmp_path / "c.jsonl"
    path.write_bytes("".join(lines).encode("utf-8"))
    return path


def in_parts(monkeypatch, parts):
    monkeypatch.setattr(ingest, "_PART_BYTES", 64)
    monkeypatch.setattr(ingest, "_cpus", lambda: parts)


def counted(monkeypatch, name):
    """Calls of ingest.name made in this process (not in a forked child)."""
    calls = []
    fn, caller = getattr(ingest, name), os.getpid()

    def wrapper(*args):
        if os.getpid() == caller:
            calls.append(args)
        return fn(*args)

    monkeypatch.setattr(ingest, name, wrapper)
    return calls


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_parts_read_as_one(tmp_path, monkeypatch, parts):
    path = split_corpus(tmp_path)
    whole, whole_report = ingest_profiles(path)
    assert whole_report.rejection_reasons.keys() == {REASON_MALFORMED, REASON_DUPLICATE_ID}
    in_parts(monkeypatch, parts)
    forks, reads = counted(monkeypatch, "_fork"), counted(monkeypatch, "_read_part")
    profiles, report = ingest_profiles(path)
    assert len(forks) == parts - 1 and len(reads) == 1
    assert report == whole_report
    assert_same_columns(profiles, whole)
    assert report.total_records == (
        report.active_records + report.inactive_records + report.rejected_records
    )


@pytest.mark.parametrize("failure", ["exit", "short", "no fork"])
def test_a_failed_child_has_its_part_read_again(tmp_path, monkeypatch, failure):
    path = split_corpus(tmp_path)
    whole, whole_report = ingest_profiles(path)
    in_parts(monkeypatch, 3)
    caller = os.getpid()
    read_part = ingest._read_part

    def exits(*args):
        if os.getpid() != caller:
            os._exit(1)
        return read_part(*args)

    def short(obj, pipe, protocol):
        data = pickle.dumps(obj, protocol)
        pipe.write(data[: len(data) // 2])

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    if failure == "exit":
        monkeypatch.setattr(ingest, "_read_part", exits)
    elif failure == "short":
        monkeypatch.setattr(ingest.pickle, "dump", short)
    else:
        monkeypatch.setattr(ingest.os, "fork", no_fork)
    reads = counted(monkeypatch, "_read_part")
    profiles, report = ingest_profiles(path)
    assert len(reads) == 3  # the caller read every part
    assert report == whole_report
    assert_same_columns(profiles, whole)


def test_every_child_is_reaped_when_ingest_raises(tmp_path, monkeypatch):
    # The autouse check in conftest fails the test if a child outlives it.
    path = split_corpus(tmp_path)
    in_parts(monkeypatch, 4)

    def fails(*args):
        raise MemoryError

    monkeypatch.setattr(ingest, "_append", fails)
    with pytest.raises(MemoryError):
        ingest_profiles(path)


def test_no_fork_while_another_thread_is_live(tmp_path, monkeypatch):
    path = split_corpus(tmp_path)
    whole, whole_report = ingest_profiles(path)
    monkeypatch.setattr(ingest, "_PART_BYTES", 64)
    forks = counted(monkeypatch, "_fork")
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        profiles, report = ingest_profiles(path)
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert report == whole_report
    assert_same_columns(profiles, whole)


def test_a_fifo_is_read_to_its_end(tmp_path, monkeypatch):
    path = split_corpus(tmp_path)
    whole, whole_report = ingest_profiles(path)
    in_parts(monkeypatch, 4)  # would split a regular file of this size
    forks = counted(monkeypatch, "_fork")
    fifo = tmp_path / "c.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        profiles, report = ingest_profiles(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert forks == []
    assert report == whole_report
    assert_same_columns(profiles, whole)


def test_industry_ties_and_variants_repair_as_the_reference(tmp_path):
    # Two orgs: "acme" splits 2:2 between variants of two industries (a tie,
    # "finance" wins), "globex" 1:2 ("tech" wins).
    def line(uid, org, industry):
        job = {"title": "analyst", "organization": org, "industry": industry,
               "start": "2010-01", "end": None}
        return json.dumps({"user_id": uid, "grad_date": "2009-06", "education_count": 1,
                           "skills": ["x"], "jobs": [job]})

    lines = [line("u1", "Acme", "Tech"), line("u2", "acme ", " tech"),
             line("u3", "ACME", "Finance"), line("u4", "acme", "finance"),
             line("u5", "globex", "FIN"), line("u6", "Globex", "tech"),
             line("u7", "globex", "Tech")]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    profiles, report = ingest_profiles(path)
    want, want_report = ref_ingest_profiles(path)
    assert profiles == want and report == want_report
    assert report.industry_repairs == 3
    assert [p.jobs[0].industry for p in profiles] == ["finance"] * 4 + ["tech"] * 3


def test_columns_are_read_only(tmp_path):
    job = {"title": "a", "organization": "o", "industry": "i", "start": "2010-01", "end": None}
    lines = [json.dumps({"user_id": u, "education_count": e, "skills": ["s"], "jobs": [job]})
             for u, e in (("u1", 1), ("u2", 0), ("u3", 2))]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    profiles, _ = ingest_profiles(path)
    active = filter_active(profiles)
    assert [p.user_id for p in active] == ["u1", "u3"]
    for table in (profiles, active, ProfileTable.of(list(profiles))):
        for name in ("user_code", "grad", "education", "skill_start", "skill", "user", "title",
                     "organization", "industry", "start", "end", "job_start"):
            column = getattr(table, name)
            assert isinstance(column, np.ndarray)
            with pytest.raises(ValueError):
                column[0] = 1


def test_positions_read_like_a_list():
    rng = random.Random(5)
    objects = [random_profile(rng, f"u{k}") for k in range(300)]
    table = ProfileTable.of(objects)
    n = len(objects)
    assert table[-1] == table[n - 1] == objects[-1]
    assert table[-n] == table[0] == objects[0]
    assert list(reversed(table)) == objects[::-1]
    for cut in (slice(10, 20, 3), slice(None, None, -1), slice(-5, None), slice(n, None)):
        assert table[cut] == objects[cut]
    assert table.index(objects[-1]) == n - 1
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            table[outside]


def test_packed_objects_keep_ids_and_dates():
    rng = random.Random(9)
    objects = [random_profile(rng, u) for u in ("u1", "u2", "u1", "u3", "u2")]
    table = ProfileTable.of(objects)
    assert table.user_code.tolist() == [0, 1, 0, 2, 1]
    assert table == objects and list(table) == objects
    # Views equal the objects, but are not them.
    assert any(p.jobs for p in objects)
    assert all(a is not b for p, q in zip(table, objects) for a, b in zip(p.jobs, q.jobs))
    early = DateMonth(-1, 12)  # its ordinal, -1, would read as no date
    held = JobRecord("a", "o", "i", DateMonth(2010, 1))
    for bad in (UserProfile("u", early, frozenset(), 0, ()),
                UserProfile("u", None, frozenset(), 0, (replace(held, start=early),)),
                UserProfile("u", None, frozenset(), 0, (replace(held, end=early),))):
        with pytest.raises(ValueError, match="before year 0"):
            ProfileTable.of([bad])


def test_one_position_costs_no_pass_over_the_table():
    n = 200_000
    no_jobs = np.zeros(0, np.intp)
    table = ProfileTable(
        ("s",), tuple(map(str, range(n))), np.arange(n), np.full(n, -1), np.ones(n, np.int64),
        np.arange(n + 1), np.zeros(n, np.intp), no_jobs, no_jobs, no_jobs, no_jobs,
        no_jobs.astype(np.int64), no_jobs.astype(np.int64),
    )
    tracemalloc.start()
    try:
        last = table[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last.user_id == str(n - 1)
    assert peak < 64 * 1024  # a per-user column of this table is 1.6 MB
