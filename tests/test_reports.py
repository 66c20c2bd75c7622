import csv

import pytest

from talentflow.hops import HopKind
from talentflow.ingest import ingest_profiles
from talentflow.metrics import promotion_summary
from talentflow.model import StintTable
from talentflow.reports import (
    fmt,
    write_all_reports,
    write_distributions,
    write_level_gain_hist,
    write_promotion_table,
)
from talentflow.synthgen import GeneratorSpec, generate
from helpers import config, job, profile
from test_metrics import make_record


def rows_of(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_fmt_cells():
    assert fmt(None) == ""
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(0.5) == "0.5"
    assert fmt(1 / 3) == "0.3333333333"
    assert fmt("x") == "x"


def test_distributions_schema_and_counts(tmp_path):
    cfg = config("2016-06")
    profiles = [
        profile("u1", grad="2010-01", skills=("a", "b", "c"),
                jobs=[job("t", "o", "i", "2012-01", "2014-01")]),
        profile("u2", grad="2011-01", skills=tuple(f"s{i}" for i in range(7)),
                jobs=[job("t", "o", "i", "2013-01", "2015-01")]),
    ]
    rows = rows_of(write_distributions(profiles, cfg, tmp_path / "d.csv"))
    assert rows[0] == ["metric", "bin_lower", "bin_upper", "count"]
    skills = [r for r in rows if r[0] == "skill_count"]
    assert [r[3] for r in skills] == ["1", "1"]  # one user in [0,5), one in [5,10)
    assert sum(int(r[3]) for r in rows if r[0] == "work_experience_years") == 2


def test_level_gain_hist_with_negative_bins(tmp_path):
    records = [make_record(HopKind.EXTERNAL, +30), make_record(HopKind.EXTERNAL, -30)]
    rows = rows_of(write_level_gain_hist(records, tmp_path / "h.csv"))
    spans = {(r[1], r[2]) for r in rows[1:]}
    assert ("-36", "-24") in spans
    assert ("24", "36") in spans


def test_promotion_table_totals_row(tmp_path):
    records = (
        [make_record(HopKind.EXTERNAL, +1)] * 2
        + [make_record(HopKind.INTERNAL, -1)] * 1
        + [make_record(HopKind.INTERNAL, 0)] * 1
    )
    rows = rows_of(write_promotion_table(promotion_summary(records), tmp_path / "p.csv"))
    header, external, internal, total = rows
    assert header[0] == "kind"
    assert total[1:5] == ["2", "1", "1", "4"]
    assert float(total[5]) == 0.5
    assert internal[3] == "1"  # the neutral record


@pytest.mark.parametrize("profiles", [
    [],
    [profile("u1", skills=(), jobs=[job("t", "o", "i", "2012-01")])],
    [profile("u1", education=0, jobs=[job("t", "o", "i", "2012-01")])],
], ids=["empty", "no skill", "no education"])
def test_write_all_reports_refuses_a_corpus_with_no_active_profile(tmp_path, profiles):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^no active profiles"):
        write_all_reports(profiles, config("2015-01"), out)
    assert not out.exists()


def move(user, first, second):
    return profile(user, jobs=[job(*first, "2010-01", "2011-01"), job(*second, "2011-01")])


@pytest.mark.parametrize("profiles, level", [
    # One holder per job: pruning at 2 empties the job graph.
    ([move("u1", ("a", "x", "i"), ("b", "x", "i"))], "job"),
    # Two holders of job a | i, one per organization: the org graph empties.
    ([move("u1", ("a", "x", "i"), ("a", "y", "i")),
      move("u2", ("a", "p", "i"), ("a", "q", "i"))], "org"),
], ids=["job", "org"])
def test_write_all_reports_refuses_a_graph_that_pruning_empties(tmp_path, profiles, level):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{level} graph is empty after pruning"):
        write_all_reports(profiles, config("2015-01", min_support=2), out)
    assert not out.exists()
    written = write_all_reports(profiles, config("2015-01", min_support=1), out)
    assert len(written) == 9


def test_write_all_reports_keeps_the_empty_graph_of_a_level_without_moves(tmp_path):
    # No external move: the org graph has nothing to prune, and its row reads zero.
    profiles = [move("u1", ("a", "x", "i"), ("b", "x", "i"))]
    write_all_reports(profiles, config("2015-01", min_support=1), tmp_path)
    org = rows_of(tmp_path / "graph_stats.csv")[2]
    assert org[:3] == ["org", "0", "0"]


def test_write_all_reports_reads_a_stint_table_as_its_profiles(tmp_path):
    # A StintTable over active and inactive profiles gives the reports of
    # its active profiles, as their ProfileTable does.
    spec = GeneratorSpec(seed=4, n_users=300, active_rate=0.8)
    generate(spec, tmp_path / "c.jsonl", tmp_path / "t.json")
    profiles, _ = ingest_profiles(tmp_path / "c.jsonl")
    cfg = config(str(spec.curr_date), min_support=1, cohort_min_support=5)
    stints = StintTable.of(profiles, cfg.curr_date)
    assert not profiles.is_active.all()
    want = write_all_reports(profiles, cfg, tmp_path / "profiles")
    got = write_all_reports(stints, cfg, tmp_path / "stints")
    assert [p.name for p in got] == [p.name for p in want]
    assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]
    with pytest.raises(ValueError, match="analysis date"):
        write_all_reports(stints, config("2015-01"), tmp_path / "other")
