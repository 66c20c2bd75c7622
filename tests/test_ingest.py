import json

import pytest

from talentflow.ingest import (
    REASON_DUPLICATE_ID,
    REASON_MALFORMED,
    IngestReport,
    MalformedRecordError,
    filter_active,
    ingest_profiles,
    parse_profile_line,
)
from helpers import dm, job, profile


def record(user_id="u1", grad="2010-06", education=1, skills=("python",), jobs=None):
    if jobs is None:
        jobs = [
            {"title": "Engineer", "organization": "Acme", "industry": "Tech",
             "start": "2010-07", "end": "2012-01"}
        ]
    return {
        "user_id": user_id,
        "grad_date": grad,
        "education_count": education,
        "skills": list(skills),
        "jobs": jobs,
    }


def write_corpus(tmp_path, records):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r if isinstance(r, str) else json.dumps(r))
            fh.write("\n")
    return path


def test_three_profiles_one_lacking_skills(tmp_path):
    path = write_corpus(
        tmp_path,
        [record("u1"), record("u2", skills=()), record("u3")],
    )
    profiles, report = ingest_profiles(path)
    assert len(profiles) == 3
    assert report.total_records == 3
    assert report.active_records == 2
    assert report.inactive_records == 1
    assert report.rejected_records == 0


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    profiles, report = ingest_profiles(path)
    assert profiles == []
    assert report.total_records == 0


def test_malformed_line_isolated(tmp_path):
    records = [record(f"u{i}") for i in range(10)]
    lines = [json.dumps(r) for r in records]
    lines[4] = "{not json"
    path = write_corpus(tmp_path, lines)
    profiles, report = ingest_profiles(path)
    assert len(profiles) == 9
    assert report.rejection_reasons == {REASON_MALFORMED: 1}
    assert report.total_records == 10


# A line nested past the recursion limit, and one with an integer literal
# past the int-to-str digit limit: json.loads raises RecursionError and
# ValueError (not JSONDecodeError) on them.
UNDECODABLE = ["[" * 100_000, '{"user_id": "u2", "education_count": 1' + "0" * 4_301 + "}"]


def test_lines_json_cannot_decode_are_malformed(tmp_path):
    path = write_corpus(tmp_path, [record("u1"), *UNDECODABLE])
    profiles, report = ingest_profiles(path)
    assert [p.user_id for p in profiles] == ["u1"]
    assert report.rejection_reasons == {REASON_MALFORMED: 2}
    assert report.total_records == 3
    for line in UNDECODABLE:
        with pytest.raises(MalformedRecordError, match="invalid JSON"):
            parse_profile_line(line)


def test_text_not_encodable_as_utf8_is_malformed_or_dropped(tmp_path):
    # json.dumps writes each lone surrogate as a \ud800-style escape.
    job = {"title": "lead \ud800", "organization": "Acme", "industry": "Tech",
           "start": "2010-07", "end": None}
    path = write_corpus(tmp_path, [
        record("u1", skills=("python", "sql \udfff")),
        record("u2\ud800"),
        record("u3", jobs=[job]),
        record("u4", jobs=[{**job, "title": "lead", "organization": "\udc80"}]),
        record("u5"),
    ])
    profiles, report = ingest_profiles(path)
    assert [p.user_id for p in profiles] == ["u1", "u5"]
    assert profiles[0].skills == frozenset({"python"})
    assert report.rejection_reasons == {REASON_MALFORMED: 3}
    with pytest.raises(MalformedRecordError, match="user_id"):
        parse_profile_line(json.dumps(record("u2\ud800")))
    with pytest.raises(MalformedRecordError, match=r"jobs\[0\]\.title"):
        parse_profile_line(json.dumps(record("u3", jobs=[job])))


def test_duplicate_id_first_wins(tmp_path):
    first = record("u1")
    second = record("u1", skills=("sql",))
    path = write_corpus(tmp_path, [first, second])
    profiles, report = ingest_profiles(path)
    assert len(profiles) == 1
    assert profiles[0].skills == frozenset({"python"})
    assert report.rejection_reasons == {REASON_DUPLICATE_ID: 1}


def test_report_accounting_invariant(tmp_path):
    rows = [record("u1"), record("u2", skills=()), record("u1"), "garbage"]
    path = write_corpus(tmp_path, rows)
    _, report = ingest_profiles(path)
    assert report.total_records == (
        report.active_records + report.inactive_records + report.rejected_records
    )


def test_normalization_applied(tmp_path):
    r = record("u1", jobs=[{
        "title": "  Senior   Engineer ", "organization": "ACME Corp",
        "industry": "Tech", "start": "2010-07", "end": None,
    }])
    path = write_corpus(tmp_path, [r])
    profiles, _ = ingest_profiles(path)
    j = profiles[0].jobs[0]
    assert j.title == "senior engineer"
    assert j.organization == "acme corp"
    assert j.end is None


def test_grad_date_list_takes_latest(tmp_path):
    r = record("u1", grad=None)
    r["grad_date"] = ["2008-06", "2012-06", "2010-01"]
    path = write_corpus(tmp_path, [r])
    profiles, _ = ingest_profiles(path)
    assert profiles[0].grad_date == dm("2012-06")


def test_missing_grad_date_kept(tmp_path):
    r = record("u1", grad=None)
    path = write_corpus(tmp_path, [r])
    profiles, _ = ingest_profiles(path)
    assert profiles[0].grad_date is None


def test_industry_repair_majority(tmp_path):
    def j(industry):
        return {"title": "engineer", "organization": "acme", "industry": industry,
                "start": "2010-01", "end": "2011-01"}

    rows = [
        record("u1", jobs=[j("tech")]),
        record("u2", jobs=[j("tech")]),
        record("u3", jobs=[j("finance")]),
    ]
    path = write_corpus(tmp_path, rows)
    profiles, report = ingest_profiles(path)
    assert {p.jobs[0].industry for p in profiles} == {"tech"}
    assert report.industry_repairs == 1


def test_industry_repair_tie_lexicographic(tmp_path):
    def j(industry):
        return {"title": "engineer", "organization": "acme", "industry": industry,
                "start": "2010-01", "end": "2011-01"}

    # Label ids follow the order labels are met in, so "finance" has the
    # largest id, a middle one and the smallest.
    for industries in (("tech", "finance"), ("tech", "finance", "media"), ("finance", "tech")):
        rows = [record(f"u{i}", jobs=[j(industry)]) for i, industry in enumerate(industries)]
        path = write_corpus(tmp_path, rows)
        profiles, _ = ingest_profiles(path)
        assert {p.jobs[0].industry for p in profiles} == {"finance"}


def test_deterministic_given_bytes(tmp_path):
    rows = [record(f"u{i}") for i in range(20)]
    path = write_corpus(tmp_path, rows)
    first = ingest_profiles(path)
    second = ingest_profiles(path)
    assert first[0] == second[0]


def test_unreadable_file_raises():
    with pytest.raises(OSError):
        ingest_profiles("/nonexistent/nowhere.jsonl")


def test_bad_job_date_rejects_record(tmp_path):
    r = record("u1", jobs=[{"title": "t", "organization": "o", "industry": "i",
                            "start": "2010-1", "end": None}])
    path = write_corpus(tmp_path, [r])
    profiles, report = ingest_profiles(path)
    assert profiles == []
    assert report.rejection_reasons == {REASON_MALFORMED: 1}


def test_one_object_per_label_and_date_within_a_call(tmp_path):
    def j(title, org, industry, start):
        return {"title": title, "organization": org, "industry": industry,
                "start": start, "end": None}

    rows = [
        record("u1", skills=["Python"], jobs=[j("Data  Analyst", "ACME", "Tech", "2010-07")]),
        record("u2", skills=[" python"], jobs=[j(" data analyst ", "acme", "tech", "2010-07")]),
        "{not json",
        record("u1"),
        record("u3", skills=["python"], jobs=[j("data analyst", "Acme", "Finance", "2010-07")]),
    ]
    profiles, report = ingest_profiles(write_corpus(tmp_path, rows))

    expected_job = job("data analyst", "acme", "tech", "2010-07")
    assert profiles == [
        profile(uid, grad="2010-06", skills=("python",), jobs=[expected_job])
        for uid in ("u1", "u2", "u3")
    ]
    assert report == IngestReport(
        total_records=5, active_records=3, inactive_records=0, rejected_records=2,
        rejection_reasons={REASON_MALFORMED: 1, REASON_DUPLICATE_ID: 1},
        industry_repairs=1,
    )
    a, b, c = (p.jobs[0] for p in profiles)
    assert a.title is b.title is c.title
    assert a.organization is b.organization is c.organization
    assert a.industry is b.industry is c.industry  # c's was repaired
    assert a.start is b.start is c.start
    assert profiles[0].grad_date is profiles[2].grad_date
    assert next(iter(profiles[0].skills)) is next(iter(profiles[1].skills))


def test_blank_skills_dropped():
    line = json.dumps(record("u1", skills=["  ", "Python", "python"]))
    p = parse_profile_line(line)
    assert p.skills == frozenset({"python"})


def test_filter_active_order_and_definition():
    a1 = profile("a1")
    inactive = profile("b", skills=())
    a2 = profile("a2")
    assert filter_active([a1, inactive, a2]) == [a1, a2]
    assert filter_active([]) == []


# Text-mode line splitting: at LF, CRLF and a lone CR, and at nothing else.
LINES = [json.dumps(record(f"u{i}")) for i in range(4)]
IDS = ["u0", "u1", "u2", "u3"]


@pytest.mark.parametrize("text", [
    "\n".join(LINES) + "\n",
    "\r\n".join(LINES) + "\r\n",
    "\r".join(LINES) + "\r",
    LINES[0] + "\r\n" + LINES[1] + "\r" + LINES[2] + "\n" + LINES[3] + "\r\n",
    "\n".join(LINES),  # no newline after the last line
    "\r".join(LINES),
    # Whitespace-only lines, also of whitespace that is not ASCII, are skipped.
    "\n  \t\n".join(LINES) + "\n\r\r\n\x0b\x0c\n\x1c\x1f\n\x85\u2028\u3000\n",
])
def test_lines_split_at_lf_crlf_and_lone_cr(tmp_path, text):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(text.encode("utf-8"))
    profiles, report = ingest_profiles(path)
    assert profiles == [profile(uid, grad="2010-06", jobs=[
        job("engineer", "acme", "tech", "2010-07", "2012-01")]) for uid in IDS]
    assert report == IngestReport(total_records=4, active_records=4)


def test_bom_and_other_line_breaks_do_not_split_lines(tmp_path):
    # \x85 and \u2028 may stand raw in a JSON string; \x0b and \x0c may not,
    # nor between tokens. Split there, each of these lines would read as two.
    inner = record("u5", jobs=[{"title": "lead\x85dev\u2028ops", "organization": "Acme",
                                "industry": "Tech", "start": "2010-07", "end": None}])
    lines = [
        "\ufeff" + LINES[0],  # a byte-order mark makes the first line malformed
        LINES[1],
        json.dumps(inner, ensure_ascii=False),
        json.dumps(record("u6", skills=("sql~python",))).replace("~", "\x0b"),
        json.dumps(record("u7")).replace(", ", ",\x0c", 1),
        '{"user_id": "u8",\u2028"jobs": []}',
    ]
    for end in ("\n", "\r\n", "\r"):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
        profiles, report = ingest_profiles(path)
        assert [p.user_id for p in profiles] == ["u1", "u5"]
        assert profiles[1].jobs[0].title == "lead dev ops"
        assert report == IngestReport(
            total_records=6, active_records=2, rejected_records=4,
            rejection_reasons={REASON_MALFORMED: 4},
        )


def test_line_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(
        b'{"user_id":"a","jobs":[]}\n{"user_id":"b\xff","jobs":[]}\n'
        b'\xff\n'  # not even JSON
        b'{"user_id":"c","skills":["sql \xed\xa0\x80"],"jobs":[]}\n'  # an encoded surrogate
        b'{"user_id":"d","skills":["\xc0\xaf"],"jobs":[]}\n'  # an overlong encoding
        + json.dumps(record("e")).encode()
    )
    profiles, report = ingest_profiles(path)
    assert [p.user_id for p in profiles] == ["a", "e"]
    assert report == IngestReport(
        total_records=6, active_records=1, inactive_records=1, rejected_records=4,
        rejection_reasons={REASON_MALFORMED: 4},
    )
