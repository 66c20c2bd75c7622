"""The report_dirty injector: ingest must undo every injected change."""

import json

from noise import canonical, inject
from talentflow.ingest import ingest_profiles
from talentflow.model import AnalysisConfig
from talentflow.reports import write_all_reports
from workloads import default_spec, make_corpus


def test_ingest_undoes_every_injected_change(tmp_path):
    corpus = make_corpus(default_spec(seed=3, n_users=300), tmp_path, dirty=False)
    dirty = tmp_path / "dirty.jsonl"
    counts = inject(corpus.clean_path, dirty, seed=3)
    assert min(counts.label_variants, counts.industry_conflicts, counts.malformed_lines,
               counts.duplicate_lines, counts.blank_lines) > 0

    clean_profiles, clean_report = ingest_profiles(corpus.clean_path)
    dirty_profiles, report = ingest_profiles(dirty)
    assert dirty_profiles == clean_profiles
    assert report.rejection_reasons == counts.rejection_reasons()
    assert report.industry_repairs == counts.industry_conflicts
    assert report.total_records == (
        clean_report.total_records + counts.malformed_lines + counts.duplicate_lines
    )

    config = AnalysisConfig(curr_date=corpus.spec.curr_date)
    for name, profiles in (("clean", clean_profiles), ("dirty", dirty_profiles)):
        write_all_reports(profiles, config, tmp_path / name)
    for path in sorted((tmp_path / "clean").iterdir()):
        assert path.read_bytes() == (tmp_path / "dirty" / path.name).read_bytes(), path.name


def test_variant_of_the_same_industry_is_not_a_conflict(tmp_path):
    assert canonical(" Retail\tBanking ") == canonical("retail  banking")
    clean = tmp_path / "clean.jsonl"
    industries = ("retail banking", "software services")
    with open(clean, "w", encoding="utf-8") as fh:
        for i in range(40):
            # Two jobs per organization: the injector may add no conflict there.
            job = {"title": "senior analyst", "organization": f"org {i // 2}",
                   "industry": industries[i // 2 % 2], "start": "2010-01", "end": None}
            record = {"user_id": f"u{i}", "grad_date": "2009-06", "education_count": 1,
                      "skills": ["x"], "jobs": [job]}
            fh.write(json.dumps(record) + "\n")
    dirty = tmp_path / "dirty.jsonl"
    counts = inject(clean, dirty, seed=1)
    varied = set()
    for line in dirty.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            varied.update(job["industry"] for job in record["jobs"])
    assert varied - set(industries) - {"noise"}, "no industry variant was injected"
    assert counts.industry_conflicts == 0
    _profiles, report = ingest_profiles(dirty)
    assert report.industry_repairs == 0


def test_same_seed_gives_same_bytes(tmp_path):
    corpus = make_corpus(default_spec(seed=5, n_users=100), tmp_path, dirty=False)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert inject(corpus.clean_path, a, seed=5) == inject(corpus.clean_path, b, seed=5)
    assert a.read_bytes() == b.read_bytes()
