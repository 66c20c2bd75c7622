"""No output depends on the order in which labels get their ids.

A ProfileTable codes labels in the order its builder meets them, so the
ingested golden corpus (`synth --n-users 2000 --seed 11`), the same profiles
packed again from objects, and a copy with every label id reversed number
the same labels differently. The nine report-all CSVs and the csv, dot and
graphml exports of both graph levels must be byte-identical across the
three.
"""

import numpy as np
import pytest

from talentflow import cli
from talentflow.cli import main
from talentflow.ingest import ingest_profiles
from talentflow.model import ProfileTable


def reversed_label_ids(table):
    new_id = np.arange(len(table.labels))[::-1]
    return ProfileTable(
        table.labels[::-1], table.user_id, table.user_code, table.grad, table.education,
        table.skill_start, new_id[table.skill], table.user, new_id[table.title],
        new_id[table.organization], new_id[table.industry], table.start, table.end,
        table.months,
    )


RECODINGS = {"packed": lambda table: ProfileTable.of(list(table)), "reversed": reversed_label_ids}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("label_order")
    path = root / "corpus.jsonl"
    argv = ["synth", "--n-users", "2000", "--seed", "11",
            "--out", str(path), "--truth", str(root / "truth.json")]
    assert main(argv) == 0
    return path


def outputs(corpus, out):
    """The bytes of report-all and of every graph export, by file name."""
    assert main(["report-all", "--input", str(corpus), "--out-dir", str(out / "reports"),
                 "--min-support", "1"]) == 0
    for level in ("job", "org"):
        for fmt in ("csv", "dot", "graphml"):
            assert main(["graph", "build", "--input", str(corpus), "--level", level,
                         "--min-support", "1", "--format", fmt,
                         "--out", str(out / f"graph_{level}.{fmt}")]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("recoding", sorted(RECODINGS))
def test_outputs_do_not_depend_on_label_ids(corpus, tmp_path, monkeypatch, capsys, recoding):
    want = outputs(corpus, tmp_path / "ingested")
    recode = RECODINGS[recoding]

    def ingest_recoded(path):
        profiles, report = ingest_profiles(path)
        table = recode(profiles)
        assert table == profiles
        return table, report

    monkeypatch.setattr(cli, "ingest_profiles", ingest_recoded)
    got = outputs(corpus, tmp_path / recoding)
    assert len(want) == 15 and got == want
