import hashlib
import json
import random
from math import exp, log

import pytest

from talentflow.hops import extract_all_hops
from talentflow.ingest import filter_active, ingest_profiles
from talentflow.metrics import CohortAxis, CorpusIndex, external_hop_fraction
from talentflow.model import DateMonth
from talentflow.synthgen import GeneratorSpec, ValidationError, _draws, generate
from helpers import config


def gen(tmp_path, **kwargs):
    spec = GeneratorSpec(**kwargs)
    result = generate(spec, tmp_path / "corpus.jsonl", tmp_path / "truth.json")
    return spec, result


def test_zero_users(tmp_path):
    _, result = gen(tmp_path, n_users=0)
    assert result.corpus_path.read_text() == ""
    truth = json.loads(result.truth_path.read_text())
    assert truth["work_exp_bins"] == []


def test_same_seed_identical_bytes(tmp_path):
    spec = GeneratorSpec(seed=99, n_users=200)
    generate(spec, tmp_path / "a.jsonl", tmp_path / "a.json")
    generate(spec, tmp_path / "b.jsonl", tmp_path / "b.json")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_different_seed_different_corpus(tmp_path):
    generate(GeneratorSpec(seed=1, n_users=50), tmp_path / "a.jsonl", tmp_path / "a.json")
    generate(GeneratorSpec(seed=2, n_users=50), tmp_path / "b.jsonl", tmp_path / "b.json")
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


def test_corpus_passes_ingestion_clean(tmp_path):
    _, result = gen(tmp_path, n_users=300, seed=5, active_rate=0.8)
    profiles, report = ingest_profiles(result.corpus_path)
    assert report.total_records == 300
    assert report.rejected_records == 0
    assert report.rejection_reasons == {}
    assert report.industry_repairs == 0
    assert len(profiles) == 300


def test_industry_is_function_of_organization(tmp_path):
    _, result = gen(tmp_path, n_users=300, seed=8)
    profiles, _ = ingest_profiles(result.corpus_path)
    seen = {}
    for p in profiles:
        for j in p.jobs:
            assert seen.setdefault(j.organization, j.industry) == j.industry


def test_active_rate_approximated(tmp_path):
    _, result = gen(tmp_path, n_users=3000, seed=13, active_rate=0.19)
    profiles, report = ingest_profiles(result.corpus_path)
    rate = report.active_records / report.total_records
    assert abs(rate - 0.19) < 0.02
    assert len(filter_active(profiles)) == report.active_records


def test_validation_errors_carry_field_name():
    with pytest.raises(ValidationError) as err:
        GeneratorSpec(promotion_bias=1.5)
    assert err.value.field_name == "promotion_bias"
    with pytest.raises(ValidationError):
        GeneratorSpec(hop_propensity=())
    with pytest.raises(ValidationError):
        GeneratorSpec(orgs_per_industry=1)
    with pytest.raises(ValidationError):
        GeneratorSpec(titles_per_industry={"a": ("only",)})


INT_FIELDS = (
    "n_users", "seed", "max_jobs", "orgs_per_industry", "bin_width_years",
    "max_career_years", "skill_pool_size", "max_skills",
)


@pytest.mark.parametrize("name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.0, 2.5, True, "3"])
def test_integer_fields_refuse_other_types(name, value):
    # max_jobs=2.5 used to lift the job cap: len(jobs) == 2.5 is never true.
    with pytest.raises(ValidationError) as err:
        GeneratorSpec(**{name: value})
    assert err.value.field_name == name


@pytest.mark.parametrize("name", ["active_rate", "stay_median_months", "stay_log_sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5", None, False])
def test_real_fields_refuse_non_numbers(name, value):
    with pytest.raises(ValidationError) as err:
        GeneratorSpec(**{name: value})
    assert err.value.field_name == name


def test_fewer_than_three_skills_is_refused():
    # Every profile with skills lists 3..max_skills of them.
    with pytest.raises(ValidationError) as err:
        GeneratorSpec(max_skills=2)
    assert err.value.field_name == "max_skills"


@pytest.mark.parametrize("raw", [
    {"hop_propensity": 5},
    {"hop_propensity": "0.5"},
    {"hop_propensity": [0.5, "0.2"]},
    {"titles_per_industry": ["a"]},
    {"titles_per_industry": {"a": "xy"}},  # used to become the titles ("x", "y")
    {"titles_per_industry": {"a": ["x", 1]}},
    {"titles_per_industry": {"a": None}},
    {"max_jobs": 2.5},
    {"seed": 1.0},
])
def test_spec_from_json_names_the_mistyped_field(tmp_path, raw):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError) as err:
        GeneratorSpec.from_json(path)
    assert err.value.field_name == next(iter(raw))


def test_draw_helpers_match_the_stdlib():
    # generate() draws through _draws; if Python's random changes how
    # _randbelow or normalvariate consume the stream, this fails by name.
    seq = tuple(range(100, 170))
    for seed in range(50):
        ours, stdlib = random.Random(seed), random.Random(seed)
        below, normal = _draws(ours)
        for n in range(1, 71):
            assert below(n) == stdlib._randbelow(n)
            assert 3 + below(n) == stdlib.randint(3, n + 2)
            assert seq[below(n)] == stdlib.choice(seq[:n])
            mu, sigma = log(n), (n % 7) / 5
            assert exp(mu + normal() * sigma).hex() == stdlib.lognormvariate(mu, sigma).hex()
        assert ours.getstate() == stdlib.getstate()


def test_spec_from_json_round_trip(tmp_path):
    raw = {
        "seed": 3,
        "n_users": 10,
        "curr_date": "2015-12",
        "hop_propensity": [0.8, 0.5, 0.2],
        "titles_per_industry": {"tech": ["junior", "senior"], "fin": ["clerk", "boss"]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    spec = GeneratorSpec.from_json(path)
    assert spec.seed == 3
    assert spec.curr_date == DateMonth(2015, 12)
    assert spec.hop_propensity == (0.8, 0.5, 0.2)
    assert spec.titles_per_industry["tech"] == ("junior", "senior")


def test_spec_from_json_unknown_field(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n_userz": 10}))
    with pytest.raises(ValidationError) as err:
        GeneratorSpec.from_json(path)
    assert err.value.field_name == "n_userz"


def test_truth_matches_pipeline_measurement(tmp_path):
    # Small-corpus version of the propensity-recovery check: the pipeline's
    # cohort counts must line up with the hops recorded at generation time.
    spec, result = gen(tmp_path, n_users=1500, seed=21)
    truth = json.loads(result.truth_path.read_text())
    profiles, _ = ingest_profiles(result.corpus_path)
    active = filter_active(profiles)
    cfg = config(truth["curr_date"], cohort_min_support=30,
                 group_bin_width_years=truth["bin_width_years"])
    hops, diag = extract_all_hops(active, cfg)
    assert diag.invalid_period_jobs == 0
    assert len(hops) == result.n_hops

    index = CorpusIndex.build(active, cfg)
    stats = external_hop_fraction(
        hops, [CohortAxis.WORK_EXP], index, {p.user_id: p for p in active}
    )
    cells = {spec_tuple[0].bin_lower: cell for spec_tuple, cell in stats.cohorts.items()}
    for row in truth["work_exp_bins"]:
        cell = cells[float(row["lower_years"])]
        assert cell.external_hops == row["external_hops"]
        assert cell.internal_hops == row["internal_hops"]


# Golden digests of the generator's output. A change to synthgen that means to
# alter corpus or sidecar bytes updates these and says why in CHANGES.md; any
# other change must leave them as they are.
WIDE_LADDERS = {
    f"sector {i:02d}": tuple(f"grade {r:02d}" for r in range(10)) for i in range(40)
}
ODD_LADDERS = {
    "café & \"quotes\"": ("stagiaire été", "chef \\ boss", "président"),
    "back\\slash\tindustry": ("a\"b", "機械 \U0001f600", "c\\\\d"),
}
GOLDEN_SPECS = {
    "default": dict(seed=7, n_users=2000),
    "wide": dict(seed=11, n_users=2000, titles_per_industry=WIDE_LADDERS,
                 orgs_per_industry=25),
    "active_rate": dict(seed=5, n_users=1000, active_rate=0.6),
    "max_jobs_1": dict(seed=3, n_users=500, max_jobs=1),
    "one_industry": dict(seed=9, n_users=500, orgs_per_industry=2,
                         titles_per_industry={"solo": ("low", "mid", "high")}),
    "odd_labels": dict(seed=13, n_users=500, titles_per_industry=ODD_LADDERS,
                       skill_pool_size=3, max_skills=3, stay_log_sigma=0.0),
    "always_hop": dict(seed=17, n_users=500, hop_propensity=(1.0,), promotion_bias=1.0,
                       industry_switch_prob=1.0, max_career_years=1),
    "never_hop": dict(seed=0, n_users=500, hop_propensity=(0.0, 1.0, 0.5),
                      promotion_bias=0.0, industry_switch_prob=0.0, bin_width_years=1,
                      stay_median_months=3.0, curr_date=DateMonth(2001, 1)),
}
GOLDEN_DIGESTS = {
    "active_rate": (
        "7ab187ddb160e583dd806a44a2c79a3bd203dac96604c60b2088e8ffc16b5177",
        "5a89a70a7f01c4bccf217aec9438d312071900c30143ddda57e7ea822ae5a840",
    ),
    "always_hop": (
        "7b9fdcfb639a6c4519e1ee4a37ce9e583203cf4a6cd7d4aa7333d118cd9e1c1b",
        "04ab274539ff888abb16cd3eac26204d24ff18df4fe54364e456eff85fbc0adf",
    ),
    "default": (
        "12105452417bf6e07bc11eaa9dde92fa6faae0441a041c6fcc6050ce21b4d3f3",
        "ac7d3b7a182ecfe0c5438542e4a302c95bb2e2179233b23bd0db6ce6de7a617c",
    ),
    "max_jobs_1": (
        "a507ec3e606f6a3446aac22572c984b57806d1d1eea17e9210e09b74f1bc52f3",
        "08fbfd7a994c3e5367f748c24acfa216b79c8e755cda2f4c5a0ec0a010046389",
    ),
    "never_hop": (
        "a773a51608d94707e1311f2c68680c99ec7850c71d31a2f8409bb560d181d24c",
        "b92285b975418cca3aef8aad6c17d059a047c5ac30b4e1ee759f612790594bfb",
    ),
    "odd_labels": (
        "9a20c61a2fbdd3e5489894ce97f7e4b81cd1fd8f1697aacdd64b6b55fd55959d",
        "1ab7f5c6a33ebac5b3d8c78172673d05991b3dc377bc3ae4e0ebf76f35cccac3",
    ),
    "one_industry": (
        "80c0d4886100c869ca39f8b1389d1e315cd4b0442441cc2b2ed86ec507e3c218",
        "77e0ca2c891b2ecb5a9d4a51512429fe926f4f9076f76597eae8b289c141b2fa",
    ),
    "wide": (
        "fa68cfe372f3d85d85f6bb3dadde3ff4b9672f8d85aa568bc9651229ba4af717",
        "1557216cf7b574180d508d215b2248e69448ebd2cc47d058a08ac86aa0dd961b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_generator_golden_digests(tmp_path, name):
    _, result = gen(tmp_path, **GOLDEN_SPECS[name])
    got = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (result.corpus_path, result.truth_path)
    )
    assert got == GOLDEN_DIGESTS[name]
