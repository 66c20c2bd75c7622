import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import talentflow
from talentflow.cli import main
from talentflow.synthgen import GeneratorSpec, generate


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    spec = GeneratorSpec(seed=17, n_users=400)
    generate(spec, root / "corpus.jsonl", root / "truth.json")
    return root / "corpus.jsonl"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_unknown_flag_usage_error(corpus, capsys):
    with pytest.raises(SystemExit) as err:
        main(["ingest", "--input", str(corpus), "--frobnicate"])
    assert err.value.code == 2


def test_missing_input_fails_cleanly(tmp_path, capsys):
    code = main(["ingest", "--input", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_parser_defaults_and_choices_are_the_library_values():
    from talentflow import reports
    from talentflow.cli import build_parser
    from talentflow.hopgraph import ExportFormat, GraphLevel
    from talentflow.model import AnalysisConfig

    parse = build_parser().parse_args
    common = ["--input", "c.jsonl"]
    build = parse(["graph", "build", "--level", "job", "--out", "o", *common])
    assert (build.min_support, build.cohort_min_support, build.teleport, build.bin_years) == (
        AnalysisConfig.min_support, AnalysisConfig.cohort_min_support,
        AnalysisConfig.teleport_prob, AnalysisConfig.group_bin_width_years,
    )
    assert ExportFormat(build.format) is ExportFormat.CSV_EDGELIST
    analyze = parse(["graph", "analyze", "--level", "org", "--metric", "pagerank", "--out", "o",
                     *common])
    assert analyze.top == reports.TOP_K
    assert parse(["metrics", "stay", "--out", "o", *common]).stay_bin_months == (
        reports.STAY_BIN_MONTHS
    )
    for level in GraphLevel:
        assert parse(["graph", "components", "--level", level.value, *common]).level == level.value
    for fmt in ExportFormat:
        assert parse(["graph", "build", "--level", "job", "--out", "o", "--format", fmt.value,
                      *common]).format == fmt.value


def test_ingest_prints_counts(corpus, capsys):
    assert main(["ingest", "--input", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "total_records: 400" in out
    assert "active_records:" in out


def test_ingest_counts_a_line_not_utf8_as_malformed(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"user_id":"a","jobs":[]}\n{"user_id":"b\xff","jobs":[]}\n')
    assert main(["ingest", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "total_records: 2",
        "active_records: 0",
        "inactive_records: 1",
        "rejected_records: 1",
        "rejected[MALFORMED]: 1",
        "industry_repairs: 0",
    ]


def test_hops_csv_schema(corpus, tmp_path):
    out = tmp_path / "hops.csv"
    assert main(["hops", "--input", str(corpus), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["user_id", "src_title", "src_org", "src_industry",
                       "dst_title", "dst_org", "dst_industry", "kind", "stay_months"]
    assert len(rows) > 1
    assert all(r[7] in ("internal", "external") for r in rows[1:])


def test_hops_csv_rows_are_the_hop_views(corpus, tmp_path):
    from talentflow.hops import extract_all_hops
    from talentflow.ingest import filter_active, ingest_profiles
    from talentflow.model import AnalysisConfig, DateMonth

    out = tmp_path / "hops.csv"
    assert main(["hops", "--input", str(corpus), "--curr-date", "2014-01", "--out", str(out)]) == 0
    active = filter_active(ingest_profiles(corpus)[0])
    hops, _ = extract_all_hops(active, AnalysisConfig(curr_date=DateMonth(2014, 1)))
    assert len(hops) > 0
    assert read_csv(out)[1:] == [
        [h.user_id, h.source.title, h.source.organization, h.source.industry,
         h.dest.title, h.dest.organization, h.dest.industry, h.kind.value,
         str(h.duration_of_stay_months)]
        for h in hops
    ]


def write_two_dropped_stints(tmp_path):
    """A one-profile corpus: one reversed stint, and one starting after 2012-01."""
    jobs = [
        {"title": "a", "organization": "x", "industry": "i", "start": "2010-01", "end": "2009-01"},
        {"title": "b", "organization": "y", "industry": "i", "start": "2013-01", "end": None},
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"user_id": "u1", "grad_date": "2008-06", "education_count": 1,
                                  "skills": ["s"], "jobs": jobs}) + "\n", encoding="utf-8")
    return corpus


def test_hops_notes_both_drop_reasons(tmp_path, capsys):
    corpus = write_two_dropped_stints(tmp_path)
    assert main(["hops", "--input", str(corpus), "--curr-date", "2012-01",
                 "--out", str(tmp_path / "hops.csv")]) == 0
    err = capsys.readouterr().err
    assert "skipped 1 jobs starting after 2012-01 and 1 jobs with start > end" in err


def test_report_all_notes_both_drop_reasons(tmp_path, capsys):
    corpus = write_two_dropped_stints(tmp_path)
    assert main(["report-all", "--input", str(corpus), "--curr-date", "2012-01",
                 "--out-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "skipped 1 jobs starting after 2012-01 and 1 jobs with start > end\n"
    assert len(captured.out.splitlines()) == 9
    assert main(["report-all", "--input", str(corpus), "--curr-date", "2014-01",
                 "--out-dir", str(tmp_path / "later")]) == 0
    assert "skipped 0 jobs starting after 2014-01 and 1 jobs" in capsys.readouterr().err


def test_hops_and_report_all_note_jobs_ending_before_graduation(tmp_path, capsys):
    jobs = [
        {"title": "a", "organization": "x", "industry": "i", "start": "2004-01", "end": "2006-01"},
        {"title": "b", "organization": "y", "industry": "i", "start": "2007-01", "end": None},
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"user_id": "u1", "grad_date": "2006-06", "education_count": 1,
                                  "skills": ["s"], "jobs": jobs}) + "\n", encoding="utf-8")
    note = "1 usable jobs ended before graduation; they have no work experience\n"
    assert main(["hops", "--input", str(corpus), "--out", str(tmp_path / "hops.csv")]) == 0
    assert capsys.readouterr().err == note
    # --min-support 1 keeps this one-user corpus's graphs: at the default of
    # 10, pruning empties them and report-all refuses the corpus.
    assert main(["report-all", "--input", str(corpus), "--out-dir", str(tmp_path / "out"),
                 "--min-support", "1"]) == 0
    assert capsys.readouterr().err == note


def test_report_all_warns_once_per_unconverged_pagerank(corpus, tmp_path, monkeypatch, capsys):
    from functools import partial

    from talentflow import cli
    from talentflow.model import AnalysisConfig

    assert main(["report-all", "--input", str(corpus), "--out-dir", str(tmp_path / "a")]) == 0
    assert "pagerank" not in capsys.readouterr().err
    monkeypatch.setattr(cli, "AnalysisConfig", partial(AnalysisConfig, pagerank_max_iter=1))
    assert main(["report-all", "--input", str(corpus), "--out-dir", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: pagerank hit max iterations before converging (job graph)",
        "warning: pagerank hit max iterations before converging (org graph)",
    ]


def degenerate_corpus(tmp_path, kind):
    job = {"title": "a", "organization": "x", "industry": "i", "start": "2010-01", "end": None}
    record = {"user_id": "u1", "grad_date": "2009-06", "education_count": 1, "skills": ["s"],
              "jobs": [job]}
    lines = {
        "empty": [],
        "malformed": ["{not json", json.dumps({**record, "education_count": -1}), "[]"],
        "inactive": [json.dumps({**record, "skills": []}),
                     json.dumps({**record, "user_id": "u2", "education_count": 0})],
    }[kind]
    path = tmp_path / f"{kind}.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


LOADING_COMMANDS = [
    ["hops", "--out", "o.csv"],
    ["metrics", "cohorts", "--out", "o.csv"],
    ["metrics", "levels", "--out", "o.csv"],
    ["metrics", "promotions", "--out", "o.csv"],
    ["metrics", "stay", "--out", "o.csv"],
    ["graph", "build", "--level", "job", "--out", "o.csv"],
    ["graph", "analyze", "--level", "org", "--metric", "pagerank", "--out", "o.csv"],
    ["graph", "components", "--level", "job"],
    ["graph", "powerlaw", "--level", "job", "--metric", "indegree"],
    ["report-all", "--out-dir", "out"],
]


@pytest.mark.parametrize("kind", ["empty", "malformed", "inactive"])
def test_no_active_profile_fails_every_loading_command(tmp_path, capsys, kind):
    corpus = degenerate_corpus(tmp_path, kind)
    for command in LOADING_COMMANDS:
        args = [a if a not in ("o.csv", "out") else str(tmp_path / a) for a in command]
        for date in ([], ["--curr-date", "2015-01"]):
            assert main(args + ["--input", str(corpus)] + date) == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error: ValueError: no active profiles in ")
            assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists() and not (tmp_path / "o.csv").exists()
    assert main(["ingest", "--input", str(corpus)]) == 0
    assert "active_records: 0" in capsys.readouterr().out


def test_every_loading_command_notes_dropped_stints_once(tmp_path, capsys):
    # Every command that loads the corpus notes the stints the analysis date
    # drops, once: the metrics and graph commands used to drop them silently.
    corpus = tmp_path / "c.jsonl"
    generate(GeneratorSpec(seed=3, n_users=300), corpus, tmp_path / "t.json")
    note = "skipped 563 jobs starting after 2012-01 and 0 jobs with start > end"
    for command in LOADING_COMMANDS:
        args = [a if a not in ("o.csv", "out") else str(tmp_path / a) for a in command]
        assert main(args + ["--input", str(corpus), "--curr-date", "2012-01"]) == 0, command
        assert capsys.readouterr().err.splitlines() == [note], command


def test_a_tiny_teleport_stops_at_the_iteration_limit(tmp_path, capsys):
    # Org graph a <-> b plus c -> a: the a-b cycle converges at rate
    # 1 - teleport, so at 1e-6 the derived cap used to run for minutes, and
    # at 1e-17 ln(1 - teleport) was 0 and the cap divided by it.
    def profile(user_id, orgs):
        jobs = [{"title": "t", "organization": org, "industry": "i", "start": f"{2001 + i}-01",
                 "end": f"{2001 + i}-06"} for i, org in enumerate(orgs)]
        return json.dumps({"user_id": user_id, "grad_date": "2000-06", "education_count": 1,
                           "skills": ["s"], "jobs": jobs}) + "\n"

    corpus = tmp_path / "c.jsonl"
    corpus.write_text(profile("u1", "aba") + profile("u2", "ca"), encoding="utf-8")
    out = tmp_path / "top.csv"
    for teleport in ("0.000001", "1e-17"):
        assert main(["graph", "analyze", "--input", str(corpus), "--level", "org", "--metric",
                     "pagerank", "--min-support", "1", "--teleport", teleport,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: pagerank hit max iterations before converging\n"
        )
        assert len(read_csv(out)) == 4


PRUNING_COMMANDS = [
    ["graph", "build", "--out", "o.csv", "--format", "csv"],
    ["graph", "build", "--out", "o.csv", "--format", "dot"],
    ["graph", "build", "--out", "o.csv", "--format", "graphml"],
    ["graph", "analyze", "--metric", "pagerank", "--out", "o.csv"],
    ["graph", "components"],
    ["graph", "components", "--out", "o.csv"],
    ["graph", "powerlaw", "--metric", "indegree"],
]


def test_a_graph_that_pruning_empties_fails_every_analysis(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    generate(GeneratorSpec(seed=3, n_users=300), corpus, tmp_path / "t.json")
    prune = ["--input", str(corpus), "--min-support", "100000"]
    for level in ("job", "org"):
        for command in PRUNING_COMMANDS:
            args = [a if a != "o.csv" else str(tmp_path / a) for a in command]
            assert main(args + ["--level", level] + prune) == 1, command
            assert capsys.readouterr().err == (
                f"error: ValueError: {level} graph is empty after pruning; lower --min-support\n"
            )
    assert main(["report-all", "--out-dir", str(tmp_path / "out")] + prune) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: job graph is empty after pruning; lower --min-support\n"
    )
    assert not (tmp_path / "out").exists() and not (tmp_path / "o.csv").exists()


def test_report_all_notes_dropped_stints_before_it_refuses(tmp_path, capsys):
    # report-all loads as every command does: the drop note comes first,
    # then the one error line, as graph build prints them.
    corpus = tmp_path / "c.jsonl"
    generate(GeneratorSpec(seed=3, n_users=300), corpus, tmp_path / "t.json")
    flags = ["--input", str(corpus), "--curr-date", "2012-01", "--min-support", "100000"]
    err = [
        "skipped 563 jobs starting after 2012-01 and 0 jobs with start > end\n",
        "error: ValueError: job graph is empty after pruning; lower --min-support\n",
    ]
    for command in (["report-all", "--out-dir", str(tmp_path / "out")],
                    ["graph", "build", "--level", "job", "--out", str(tmp_path / "o.csv")]):
        assert main(command + flags) == 1, command
        assert capsys.readouterr().err == "".join(err), command
    assert not (tmp_path / "out").exists() and not (tmp_path / "o.csv").exists()


def test_a_level_without_moves_fails_naming_the_cause(tmp_path, capsys):
    job = {"title": "a", "organization": "x", "industry": "i", "start": "2010-01", "end": "2011-01"}
    record = {"user_id": "u1", "grad_date": "2009-06", "education_count": 1, "skills": ["s"],
              "jobs": [job]}
    one_job, internal = tmp_path / "one_job.jsonl", tmp_path / "internal.jsonl"
    one_job.write_text(json.dumps(record) + "\n", encoding="utf-8")
    jobs = [job, {**job, "title": "b", "start": "2011-01", "end": None}]
    internal.write_text(json.dumps({**record, "jobs": jobs}) + "\n", encoding="utf-8")
    cases = [(one_job, "job", "hop"), (one_job, "org", "external hop"),
             (internal, "org", "external hop")]
    for corpus, level, moves in cases:
        for command in PRUNING_COMMANDS:
            args = [a if a != "o.csv" else str(tmp_path / a) for a in command]
            assert main(args + ["--level", level, "--input", str(corpus),
                                "--min-support", "1"]) == 1, command
            assert capsys.readouterr().err == (
                f"error: ValueError: {level} graph has no moves: no {moves} in {corpus}\n"
            )
    assert not (tmp_path / "o.csv").exists()
    assert main(["graph", "components", "--level", "job", "--input", str(internal),
                 "--min-support", "1"]) == 0


def test_metrics_cohorts(corpus, tmp_path):
    out = tmp_path / "cohorts.csv"
    assert main([
        "metrics", "cohorts", "--input", str(corpus), "--out", str(out),
        "--axes", "work_exp", "--cohort-min-support", "10",
    ]) == 0
    rows = read_csv(out)
    assert rows[0][0] == "cross"
    assert any(r[11] == "false" for r in rows[1:])  # some unsuppressed cell


def test_metrics_cohorts_skill_cross_is_report_alls(corpus, tmp_path):
    flags = ["--input", str(corpus), "--cohort-min-support", "10"]
    out = tmp_path / "cohorts.csv"
    assert main(["metrics", "cohorts", "--out", str(out), "--axes", "work_exp,skill_count",
                 *flags]) == 0
    assert main(["report-all", "--out-dir", str(tmp_path / "reports"), *flags]) == 0
    rows = read_csv(out)
    assert rows[1:] and all(r[0] == "work_exp_x_skill_count" for r in rows[1:])
    report = read_csv(tmp_path / "reports" / "cohort_fractions.csv")
    assert rows == [report[0]] + [r for r in report[1:] if r[0] == "work_exp_x_skill_count"]


def test_metrics_cohorts_bad_axis(corpus, tmp_path):
    code = main([
        "metrics", "cohorts", "--input", str(corpus),
        "--out", str(tmp_path / "x.csv"), "--axes", "shoe_size",
    ])
    assert code == 1


def test_metrics_levels_respects_min_support(corpus, tmp_path):
    out = tmp_path / "levels.csv"
    assert main([
        "metrics", "levels", "--input", str(corpus), "--out", str(out),
        "--min-support", "25",
    ]) == 0
    rows = read_csv(out)
    assert rows[0] == ["title", "organization", "support", "level_months"]
    assert all(int(r[2]) >= 25 for r in rows[1:])


def test_metrics_promotions_and_stay(corpus, tmp_path):
    promos = tmp_path / "promos.csv"
    stay = tmp_path / "stay.csv"
    assert main(["metrics", "promotions", "--input", str(corpus), "--out", str(promos)]) == 0
    assert main(["metrics", "stay", "--input", str(corpus), "--out", str(stay),
                 "--cohort-min-support", "20"]) == 0
    assert read_csv(promos)[0][0] == "kind"
    assert read_csv(stay)[0][0] == "kind"


def test_graph_build_formats(corpus, tmp_path):
    for fmt, suffix in [("csv", "csv"), ("dot", "dot"), ("graphml", "graphml")]:
        out = tmp_path / f"g.{suffix}"
        assert main([
            "graph", "build", "--input", str(corpus), "--level", "org",
            "--out", str(out), "--format", fmt,
        ]) == 0
        assert out.stat().st_size > 0
    assert read_csv(tmp_path / "g.csv")[0] == ["src", "dst", "weight"]


def test_graph_analyze_pagerank_top20(corpus, tmp_path):
    out = tmp_path / "top.csv"
    ccdf = tmp_path / "ccdf.csv"
    assert main([
        "graph", "analyze", "--input", str(corpus), "--level", "job",
        "--metric", "pagerank", "--top", "20", "--out", str(out),
        "--ccdf", str(ccdf),
    ]) == 0
    rows = read_csv(out)
    assert rows[0] == ["metric", "rank", "title", "industry", "score"]
    assert len(rows) - 1 <= 20
    scores = [float(r[4]) for r in rows[1:]]
    assert scores == sorted(scores, reverse=True)
    assert read_csv(ccdf)[0] == ["metric", "value", "ccdf"]


def test_graph_components(corpus, tmp_path, capsys):
    args = ["graph", "components", "--input", str(corpus), "--level", "org"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "scc_count:" in out
    assert "largest_wcc_size:" in out
    # --out writes the same values as one CSV row under the printed names.
    path = tmp_path / "stats.csv"
    assert main(args + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}\n"
    header, row = read_csv(path)
    assert [f"{name}: {value}" for name, value in zip(header, row)] == out.splitlines()


def test_graph_powerlaw(corpus, capsys):
    code = main([
        "graph", "powerlaw", "--input", str(corpus), "--level", "job",
        "--metric", "indegree",
    ])
    captured = capsys.readouterr()
    # Tiny synthetic catalogs may not leave ten positive degrees; either a
    # fit or a clean one-line failure is acceptable here.
    assert code in (0, 1)
    if code == 0:
        assert "alpha:" in captured.out
    else:
        assert "InsufficientTailError" in captured.err


def test_synth_cli_round_trip(tmp_path):
    out = tmp_path / "c.jsonl"
    truth = tmp_path / "t.json"
    assert main(["synth", "--out", str(out), "--truth", str(truth),
                 "--n-users", "50", "--seed", "3"]) == 0
    assert len(out.read_text().splitlines()) == 50
    assert json.loads(truth.read_text())["seed"] == 3


def test_synth_cli_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_users": 5, "seed": 1}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "c.jsonl"),
                 "--truth", str(tmp_path / "t.json")]) == 0
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 5


def test_synth_cli_names_a_mistyped_spec_field(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_users": 300, "seed": 3, "max_jobs": 2.5}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "c.jsonl"),
                 "--truth", str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: ValidationError: max_jobs: must be an integer, got 2.5\n"
    assert not (tmp_path / "c.jsonl").exists()


def test_report_all_writes_nine_files(corpus, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["report-all", "--input", str(corpus), "--out-dir", str(out_dir),
                 "--cohort-min-support", "20"]) == 0
    # One path a line, in the order of the reports module's docstring.
    assert capsys.readouterr().out.splitlines() == [str(out_dir / name) for name in [
        "distributions.csv",
        "cohort_fractions.csv",
        "promotion_table.csv",
        "level_gain_hist.csv",
        "stay_analysis.csv",
        "graph_stats.csv",
        "centrality_ccdf_job.csv",
        "top20_job.csv",
        "top20_org.csv",
    ]]
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "centrality_ccdf_job.csv",
        "cohort_fractions.csv",
        "distributions.csv",
        "graph_stats.csv",
        "level_gain_hist.csv",
        "promotion_table.csv",
        "stay_analysis.csv",
        "top20_job.csv",
        "top20_org.csv",
    ]
    for name in names:
        rows = read_csv(out_dir / name)
        assert rows, name
        assert all(len(r) == len(rows[0]) for r in rows), name


def test_report_all_env_var_fallback(corpus, tmp_path, monkeypatch):
    out_dir = tmp_path / "env_reports"
    monkeypatch.setenv("TALENTFLOW_OUT_DIR", str(out_dir))
    assert main(["report-all", "--input", str(corpus)]) == 0
    assert (out_dir / "promotion_table.csv").exists()


def test_report_all_requires_out_dir(corpus, monkeypatch):
    monkeypatch.delenv("TALENTFLOW_OUT_DIR", raising=False)
    assert main(["report-all", "--input", str(corpus)]) == 1


def test_explicit_curr_date_honored(corpus, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["hops", "--input", str(corpus), "--out", str(a)]) == 0
    assert main(["hops", "--input", str(corpus), "--out", str(a.with_name('a2.csv')),
                 ]) == 0
    assert main(["hops", "--input", str(corpus), "--out", str(b),
                 "--curr-date", "2030-01"]) == 0
    assert a.read_bytes() == a.with_name('a2.csv').read_bytes()


def test_importing_the_package_loads_no_scipy():
    # scipy is a test-only oracle; report-all must not pay for importing it.
    code = (
        "import sys, talentflow, talentflow.cli, talentflow.reports; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(talentflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_report_all_drops_a_record_utf8_cannot_encode(tmp_path, capsys):
    # UTF-8 cannot encode a job title holding a lone surrogate escape, so
    # its record is malformed and report-all writes the reports of the
    # corpus without it, instead of stopping part way through its CSVs.
    generate(GeneratorSpec(seed=5, n_users=30), tmp_path / "clean.jsonl", tmp_path / "truth.json")
    lines = (tmp_path / "clean.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if len(json.loads(line)["jobs"]) > 1)
    record = json.loads(lines[k])
    for job in record["jobs"]:
        job["title"] = "lead \ud800"
    (tmp_path / "dirty.jsonl").write_text(
        "".join(lines[:k] + [json.dumps(record) + "\n"] + lines[k + 1:]), encoding="utf-8"
    )
    (tmp_path / "dropped.jsonl").write_text("".join(lines[:k] + lines[k + 1:]), encoding="utf-8")
    flags = ["--min-support", "1", "--cohort-min-support", "1", "--curr-date", "2016-06"]
    for name in ("dirty", "dropped"):
        assert main(["report-all", "--input", str(tmp_path / f"{name}.jsonl"),
                     "--out-dir", str(tmp_path / name), *flags]) == 0
    written = sorted(p.name for p in (tmp_path / "dirty").iterdir())
    assert len(written) == 9
    for name in written:
        assert (tmp_path / "dirty" / name).read_bytes() == (tmp_path / "dropped" / name).read_bytes()
