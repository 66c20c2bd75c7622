import ast
import random
import re
import string
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from talentflow.model import (
    AnalysisConfig,
    DateMonth,
    InvalidLabelError,
    JobKey,
    OrgJobKey,
    StintDrops,
    StintTable,
    cell_counts,
    distinct_counts,
    groups,
    months_between,
    normalize_label,
    sort_order,
)
from helpers import dm, profile, job


date_months = st.builds(
    DateMonth, year=st.integers(1950, 2050), month=st.integers(1, 12)
)


def test_months_between_examples():
    assert months_between(dm("2015-06"), dm("2016-06")) == 12
    assert months_between(dm("2016-03"), dm("2016-03")) == 0
    assert months_between(dm("2016-06"), dm("2015-06")) == -12


def test_subtraction_operator():
    assert dm("2016-06") - dm("2015-06") == 12


@given(date_months, date_months, date_months)
def test_months_between_additive(a, b, c):
    assert months_between(a, b) + months_between(b, c) == months_between(a, c)


@given(date_months, date_months)
def test_months_between_antisymmetric(a, b):
    assert months_between(a, b) == -months_between(b, a)


@given(date_months, date_months)
def test_months_between_is_calendar_arithmetic(a, b):
    # Any g(b) - g(a) is additive and antisymmetric; this pins g to the calendar.
    assert months_between(a, b) == (b.year - a.year) * 12 + (b.month - a.month)
    assert (a < b) == (a.ordinal < b.ordinal)
    assert (a == b) == (a.ordinal == b.ordinal)


def test_date_ordering():
    assert dm("2015-12") < dm("2016-01") < dm("2016-02")


def test_date_parse_rejects_garbage():
    # A final newline, a trailing space, and Arabic-Indic or fullwidth digits.
    for bad in ["2016", "2016-00", "2016-13", "16-06", "2016/06",
                "2010-01\n", "2010-01 ", "\u0662\u0660\u0661\u0660-\u0660\u0661",
                "\uff12\uff10\uff11\uff10-\uff10\uff11"]:
        with pytest.raises(ValueError):
            dm(bad)


def test_normalize_label_examples():
    assert normalize_label("  Software   Engineer ") == "software engineer"
    assert normalize_label("CEO") == "ceo"
    with pytest.raises(InvalidLabelError):
        normalize_label("   ")


@pytest.mark.parametrize("raw", ["lead \ud800", "\udfff", "Señor \udc80 lead"])
def test_normalize_label_rejects_lone_surrogates(raw):
    with pytest.raises(InvalidLabelError, match="UTF-8"):
        normalize_label(raw)


@given(st.text(max_size=40))
def test_normalize_label_idempotent(raw):
    try:
        once = normalize_label(raw)
    except InvalidLabelError:
        return
    assert normalize_label(once) == once


def ref_normalize_label(raw):
    """normalize_label as a regex, the definition it must keep."""
    label = re.sub(r"\s+", " ", raw.strip()).translate(
        str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
    )
    if re.search("[\ud800-\udfff]", label):
        raise InvalidLabelError(f"label not encodable as UTF-8: {raw!r}")
    if not label:
        raise InvalidLabelError(f"label empty after normalization: {raw!r}")
    return label


# Unicode whitespace (including separators \x1c-\x1f, NEL, NBSP, U+2028)
# and letters whose case str.lower() would change outside ASCII.
LABEL_CHARS = st.sampled_from(" \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2000\u2028\u3000aZÑñİKǅé-")


@given(st.one_of(
    st.text(LABEL_CHARS, max_size=20),
    st.text(max_size=30),
    st.text(st.characters(categories=["Cs", "Zs", "Ll"]), max_size=10),
))
def test_normalize_label_equals_the_regex_definition(raw):
    try:
        want = ref_normalize_label(raw)
    except InvalidLabelError as exc:
        with pytest.raises(InvalidLabelError, match=re.escape(str(exc))):
            normalize_label(raw)
        return
    assert normalize_label(raw) == want


def test_normalize_is_ascii_only_folding():
    # Non-ASCII case is left alone; no locale surprises.
    assert normalize_label("İstanbul Ofis") == "İstanbul ofis"


def test_is_active_definition():
    assert profile(skills=("a",), education=1).is_active
    assert not profile(skills=(), education=1).is_active
    assert not profile(skills=("a",), education=0).is_active


def test_is_active_stable_under_permutation():
    rng = random.Random(5)
    jobs = [job("a", "x", "i", "2010-01", "2011-01"), job("b", "y", "i", "2011-01", "2012-01")]
    p1 = profile(jobs=jobs, skills=("s1", "s2"))
    for _ in range(5):
        rng.shuffle(jobs)
        p2 = profile(jobs=jobs, skills=("s2", "s1"))
        assert p1.is_active == p2.is_active


def test_job_key_accessors():
    j = job("engineer", "acme", "tech", "2010-01", "2012-01")
    assert j.key == JobKey("engineer", "tech")
    assert j.org_key.organization == "acme"


def test_stored_keys_are_built_once_and_follow_replace():
    j = job("engineer", "acme", "tech", "2010-01", "2012-01")
    assert j.key == JobKey("engineer", "tech")
    assert j.org_key == OrgJobKey("engineer", "acme")
    assert j.key is j.key and j.org_key is j.org_key
    # What industry repair at ingest does: the stored keys must not go stale.
    repaired = replace(j, industry="finance")
    assert repaired.key == JobKey("engineer", "finance")
    assert replace(j, organization="globex").org_key == OrgJobKey("engineer", "globex")
    assert j.key == JobKey("engineer", "tech")


def test_open_end_resolution():
    j = job("engineer", "acme", "tech", "2010-01")
    assert j.end is None
    assert j.end_or(dm("2016-06")) == dm("2016-06")
    assert j.has_valid_period(dm("2016-06"))
    assert not j.has_valid_period(dm("2009-12"))


@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 10**6)), max_size=40),
    st.sampled_from([0, 2**30]),
    st.sampled_from([np.intp, np.int32]),
)
@example(2, [(1, 0), (1, 1), (0, 5 - 2**30)], 2**30, np.int32)
def test_distinct_counts_equals_a_set_count(n_items, pairs, base, dtype):
    # Codes near 2**30 in int32 columns must not wrap while they are counted.
    pairs = [(item % n_items, base + who) for item, who in pairs]
    item = np.array([i for i, _ in pairs], dtype=dtype)
    who = np.array([w for _, w in pairs], dtype=dtype)
    want = [len({w for i, w in pairs if i == k}) for k in range(n_items)]
    got = distinct_counts(item, who, n_items).tolist()
    assert got == distinct_counts(item.astype(np.int64), who.astype(np.int64), n_items).tolist()
    assert got == want


# --- sorting and counting by packed keys ---------------------------------------

int32s = st.integers(-(2**31), 2**31 - 1)
int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def key_columns(draw, max_columns=4):
    """1-4 equal-length int64, int32 or bool columns, empty ones and spans
    whose product passes 2**63 included."""
    n = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(1, max_columns))):
        values, dtype = draw(st.sampled_from([
            (st.booleans(), bool),
            (st.integers(-3, 3), np.int64),
            (st.integers(-3, 3), np.int32),
            (st.integers(-(10**6), 10**6), np.int64),
            (int32s, np.int32),
            (int64s, np.int64),
        ]))
        columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    return columns


def as_int64(columns):
    return [c.astype(np.int64) if c.dtype == np.int32 else c for c in columns]


def row_tuples(columns):
    return list(zip(*(c.tolist() for c in columns)))


@given(key_columns())
def test_sort_order_is_lexsort(columns):
    assert sort_order(*columns).tolist() == np.lexsort(columns[::-1]).tolist()
    assert sort_order(*columns).tolist() == sort_order(*as_int64(columns)).tolist()
    rows = row_tuples(columns)
    unstable = sort_order(*columns, stable=False).tolist()
    assert sorted(unstable) == list(range(len(rows)))
    assert [rows[i] for i in unstable] == sorted(rows)


def test_sort_order_falls_back_when_spans_pass_2_63():
    wide = np.array([-(2**62), 2**62, 0, 2**62], np.int64)
    flags = np.array([True, False, True, False])
    assert sort_order(wide, flags).tolist() == np.lexsort((flags, wide)).tolist() == [0, 2, 1, 3]
    assert sort_order(np.zeros(0, np.int64), np.zeros(0, bool)).tolist() == []


@given(key_columns())
@example([np.array([-(2**62), 2**62, 0, 2**62, 2**62], np.int64),  # spans past 2**63
          np.array([True, False, True, False, False])])
def test_groups_partition_as_sorted_tuples(columns):
    rows = row_tuples(columns)
    order, first, size = groups(*columns)
    bounds = np.append(first, len(order)).tolist()
    got = [sorted(order[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    want = [[i for i, r in enumerate(rows) if r == key] for key in sorted(set(rows))]
    assert got == want
    assert size.tolist() == list(map(len, want))


@given(key_columns(max_columns=3), st.data())
def test_cell_counts_equal_a_counter(columns, data):
    rows = row_tuples(columns)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))), bool)
    want = Counter(rows)
    want_masked = Counter(r for r, m in zip(rows, mask.tolist()) if m)
    cells, count, masked = cell_counts(*columns)
    assert masked is None
    assert row_tuples(cells) == sorted(want)
    assert [c.dtype for c in cells] == [c.dtype for c in columns]
    assert count.tolist() == [want[r] for r in sorted(want)]
    cells, count, masked = cell_counts(*columns, mask=mask)
    assert masked.tolist() == [want_masked[r] for r in sorted(want)]
    wide_cells, wide_count, wide_masked = cell_counts(*as_int64(columns), mask=mask)
    assert row_tuples(cells) == row_tuples(wide_cells)
    assert (count.tolist(), masked.tolist()) == (wide_count.tolist(), wide_masked.tolist())


def test_cell_counts_allocate_no_more_than_the_rows():
    # A span of 2**40 values over two rows counts by sorting, not by a bincount of 8 TB.
    far = np.array([0, 2**40, 0], np.int64)
    tracemalloc.start()
    try:
        cells, count, masked = cell_counts(far, mask=np.array([True, False, False]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cells[0].tolist(), count.tolist(), masked.tolist()) == ([0, 2**40], [2, 1], [1, 0])
    assert peak < 64 * 1024


@pytest.mark.parametrize("attr, owner", [("lexsort", "sort_order"), ("divmod", "cell_counts")])
def test_only_model_sorts_or_unpacks_multi_column_keys(attr, owner):
    # One owner of packed keys: every multi-key sort goes through
    # model.sort_order, and every packed key is unpacked in model.cell_counts.
    src = Path(__file__).resolve().parent.parent / "src" / "talentflow"
    callers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Attribute) and node.attr == attr:
                        callers.append((path.name, fn.name))
    assert callers == [("model.py", owner)]


@pytest.mark.parametrize("field", [
    "min_support", "group_bin_width_years", "cohort_min_support", "pagerank_max_iter",
])
@pytest.mark.parametrize("value", [0, -1, 5.0, True, "5"])
def test_analysis_config_refuses_a_setting_that_is_not_a_positive_int(field, value):
    # A float bin width used to reach the packed cohort keys and fail there
    # with numpy's UFuncTypeError.
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer$"):
        AnalysisConfig(DateMonth(2016, 6), **{field: value})
    assert getattr(AnalysisConfig(DateMonth(2016, 6), **{field: 3}), field) == 3


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_analysis_config_refuses_a_pagerank_tol_that_is_not_positive(tol):
    # NaN used to pass (nan <= 0.0 is false) and fail later, in
    # pagerank_iteration_cap, converting NaN to an int.
    with pytest.raises(ValueError, match="^pagerank_tol must be positive$"):
        AnalysisConfig(DateMonth(2016, 6), pagerank_tol=tol)


def test_stint_drops_are_one_frozen_value_only_model_makes():
    # StintTable.of counts the dropped stints once; nothing adds to them later.
    p = profile(grad="2012-01", jobs=[job("a", "x", "i", "2017-01"),
                                      job("b", "x", "i", "2011-01", "2010-01"),
                                      job("c", "x", "i", "2010-01", "2011-01")])
    drops = StintTable.of([p], dm("2016-06")).drops
    assert drops == StintDrops(future_jobs=1, invalid_period_jobs=1, negative_experience_jobs=1)
    for name in ("future_jobs", "invalid_period_jobs", "negative_experience_jobs"):
        with pytest.raises(FrozenInstanceError):
            setattr(drops, name, 0)
    src = Path(__file__).resolve().parent.parent / "src" / "talentflow"
    makers, takers = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "StintDrops" in (getattr(name, "id", None),
                                                               getattr(name, "attr", None)):
                makers.append(path.name)
            if isinstance(node, ast.arg) and "StintDrops" in ast.unparse(node.annotation or node):
                takers.append((path.name, node.arg))
    assert set(makers) == {"model.py"} and takers == []
