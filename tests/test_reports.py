import csv

import pytest

from talentflow.hops import HopKind
from talentflow.metrics import promotion_summary
from talentflow.reports import (
    fmt,
    write_all_reports,
    write_distributions,
    write_level_gain_hist,
    write_promotion_table,
)
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
