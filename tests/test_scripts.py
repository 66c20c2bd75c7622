"""Smoke tests: the two scripts under scripts/ run end to end on a small corpus."""

import os
import subprocess
import sys
from pathlib import Path

import talentflow

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(talentflow.__file__).resolve().parents[1])
REPORTS = [
    "distributions.csv", "cohort_fractions.csv", "promotion_table.csv",
    "level_gain_hist.csv", "stay_analysis.csv", "graph_stats.csv",
    "centrality_ccdf_job.csv", "top20_job.csv", "top20_org.csv",
]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--n-users", "300", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_sweep_min_support_prints_one_row_per_threshold(tmp_path):
    out = run_script("sweep_min_support.py", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["min_support", "nodes", "edges", "sparsity", "largest_scc"]
    assert [int(row.split()[0]) for row in rows] == [1, 2, 5, 10, 25, 50, 100, 250]


def test_run_demo_writes_the_nine_reports(tmp_path):
    out_dir = tmp_path / "demo"
    out = run_script("run_demo.py", "--out-dir", str(out_dir), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert f"wrote 9 report files to {out_dir}/" in out.stdout
    for name in REPORTS:
        assert (out_dir / name).stat().st_size > 0, name
