"""The dtypes of the table columns, as the class bodies declare them.

Every per-row column (label ids, key codes, user indices, job rows, month
ordinals, hop ends) is model.ROW_DTYPE, int32. Education counts keep their
exact int64 value, offsets into the rows and graph ids are intp, and keys
packed from several columns are int64 whatever the columns' dtype.
"""

import ast
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from talentflow import ingest
from talentflow.hopgraph import GraphIndex, GraphLevel, build_graph
from talentflow.hops import HopTable, extract_all_hops
from talentflow.ingest import filter_active, ingest_profiles
from talentflow.metrics import CorpusIndex, LevelGainTable, level_gains
from talentflow.model import ROW_DTYPE, DateMonth, ProfileTable, StintTable
from talentflow.synthgen import GeneratorSpec, generate
from helpers import config
from test_ingest_columns import in_parts

SRC = Path(__file__).resolve().parent.parent / "src" / "talentflow"


def declared_dtypes(cls) -> dict[str, np.dtype]:
    """Each array field's dtype, from the comment on its line of the class body."""
    found = re.findall(r"^    (\w+): np\.ndarray\b.*?#\s*(\w+)", inspect.getsource(cls), re.M)
    return {name: np.dtype(dtype) for name, dtype in found}


def array_fields(table) -> dict[str, np.dtype]:
    return {name: getattr(table, name).dtype for name in table.__dataclass_fields__
            if isinstance(getattr(table, name), np.ndarray)}


def assert_declared(table) -> None:
    assert array_fields(table) == declared_dtypes(type(table))


def test_every_array_field_declares_its_dtype():
    # Without a comment a column would drop out of the checks below.
    for cls in (ProfileTable, StintTable, HopTable, LevelGainTable, GraphIndex):
        names = [n for n, f in cls.__dataclass_fields__.items() if "ndarray" in str(f.type)]
        assert sorted(declared_dtypes(cls)) == sorted(names), cls.__name__
    assert declared_dtypes(ProfileTable)["title"] == ROW_DTYPE == np.int32
    assert declared_dtypes(ProfileTable)["education"] == np.int64
    assert declared_dtypes(GraphIndex)["src"] == declared_dtypes(GraphIndex)["dst"] == np.intp


def read_in_parts(monkeypatch, path, parts):
    in_parts(monkeypatch, parts)
    assert len(ingest._part_starts(path)) == parts


@pytest.mark.parametrize("parts", [1, 2])
def test_tables_hold_their_declared_dtypes(tmp_path, monkeypatch, parts):
    spec = GeneratorSpec(seed=5, n_users=300, active_rate=0.9)
    generate(spec, tmp_path / "c.jsonl", tmp_path / "t.json")
    read_in_parts(monkeypatch, tmp_path / "c.jsonl", parts)
    profiles, _ = ingest_profiles(tmp_path / "c.jsonl")
    cfg = config(str(spec.curr_date), min_support=1)
    active = filter_active(profiles)
    assert len(active) < len(profiles)
    for table in (profiles, active, ProfileTable.of(list(profiles))):
        assert_declared(table)
        stints = StintTable.of(table, cfg.curr_date)
        assert_declared(stints)
        hops, _ = extract_all_hops(stints, cfg)
        assert_declared(hops)
        records = level_gains(hops, CorpusIndex.build(stints, cfg))
        assert len(records)
        assert_declared(records)
        for level in GraphLevel:
            graph = build_graph(hops, level, cfg, profiles=stints)
            assert graph.edges and graph.edges is graph.index
            assert_declared(graph.index)
    for table in (HopTable.of(list(hops)), LevelGainTable.of(list(records))):
        assert_declared(table)
    assert_declared(HopTable.of(list(hops)).stints)
    assert_declared(GraphIndex.of(["a", "b"], {("a", "b"): 2}))


def test_only_model_names_the_row_dtype():
    # One line of model chooses the dtype of every per-row column; the
    # other modules read it as model.ROW_DTYPE or from the columns.
    named = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "int32"
                    or isinstance(node, ast.Name) and node.id == "int32"
                    or isinstance(node, ast.Constant) and node.value in ("int32", "i4")):
                named.append(path.name)
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ROW_DTYPE" for t in node.targets
            ):
                named.append(f"{path.name}: ROW_DTYPE =")
    assert named == ["model.py: ROW_DTYPE =", "model.py"]


def write_lines(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.mark.parametrize("parts", [1, 2])
def test_an_education_count_past_int32_keeps_its_value(tmp_path, monkeypatch, parts):
    counts = [2**40 + i for i in range(6)]
    write_lines(tmp_path / "c.jsonl", [
        {"user_id": f"u{i}", "education_count": n, "skills": ["s"],
         "jobs": [{"title": "t", "organization": "o", "industry": "i", "start": "2010-01"}]}
        for i, n in enumerate(counts)
    ])
    read_in_parts(monkeypatch, tmp_path / "c.jsonl", parts)
    profiles, report = ingest_profiles(tmp_path / "c.jsonl")
    assert report.active_records == len(counts)
    assert profiles.education.dtype == np.int64
    assert profiles.education.tolist() == counts
    assert [p.education_entries for p in profiles] == counts
    assert ProfileTable.of(list(profiles)).education.tolist() == counts


def test_the_last_four_digit_month_round_trips(tmp_path):
    write_lines(tmp_path / "c.jsonl", [
        {"user_id": "u", "grad_date": "9999-12", "education_count": 1, "skills": ["s"],
         "jobs": [{"title": "t", "organization": "o", "industry": "i",
                   "start": "9999-12", "end": "9999-12"},
                  {"title": "t", "organization": "p", "industry": "i", "start": "9999-12"}]}
    ])
    profiles, _ = ingest_profiles(tmp_path / "c.jsonl")
    last = DateMonth(9999, 12)
    (p,) = profiles
    assert p.grad_date == last and [(j.start, j.end) for j in p.jobs] == [(last, last), (last, None)]
    assert ProfileTable.of([p]) == [p]
    stints = StintTable.of(profiles, last)
    assert stints.end.tolist() == [last.ordinal] * 2 and stints.work_exp.tolist() == [0, 0]
    hops, _ = extract_all_hops(stints, config(str(last)))
    assert [(h.source.end, h.dest.start, h.duration_of_stay_months) for h in hops] == [
        (last, last, 0)]


def test_an_analysis_date_past_the_row_dtype_raises():
    # np.where would wrap it into the int32 end column without a word.
    table = ProfileTable.of([])
    far = DateMonth(2**31 // 12 + 1, 1)
    with pytest.raises(OverflowError):
        StintTable.of(table, far)
