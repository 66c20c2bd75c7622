"""Seeded synthetic workforce generator.

Produces an ingestion-schema corpus plus a ground-truth sidecar, so that
pipeline outputs can be checked against the probabilities that actually
drove generation. One pseudo-random stream keyed by the seed and a fixed
user order make the output byte-identical across runs.

Each simulated user graduates, takes a junior job, and then hops: at the
end of every closed stint the external-hop probability is looked up in a
work-experience-binned propensity curve, and the promotion bias decides
whether the next job sits one rung higher or lower on its industry's title
ladder. The sidecar records, per work-experience bin, the external/internal
hop counts as drawn (only for active users, which is what the pipeline
analyzes), the realized promotion/demotion counts per hop kind, and the
title ladders that define true seniority.

Every draw comes from one random.Random(seed). Uniform integers and normal
deviates go through the module's own helpers over that generator's
getrandbits and random (`_draws`), which repeat Random._randbelow and
Random.normalvariate draw for draw: on this Python they agree with the
stdlib's randint, choice and lognormvariate, as tests/test_synthgen.py
checks, and its golden digests pin the bytes of the corpus and sidecar.
Skill lists come from Random.sample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from math import exp, isfinite, log
from pathlib import Path
from random import NV_MAGICCONST
from typing import Callable, Mapping

from .model import DateMonth, is_int

DEFAULT_CATALOG: dict[str, tuple[str, ...]] = {
    "information technology": (
        "intern",
        "software engineer",
        "senior software engineer",
        "engineering manager",
        "vice president of engineering",
        "ceo",
    ),
    "banking": (
        "intern",
        "analyst",
        "associate",
        "vice president",
        "director",
        "managing director",
    ),
    "financial services": (
        "intern",
        "financial analyst",
        "portfolio associate",
        "portfolio manager",
        "head of research",
        "chief investment officer",
    ),
    "higher education": (
        "teaching assistant",
        "research assistant",
        "lecturer",
        "assistant professor",
        "associate professor",
        "professor",
    ),
    "management consulting": (
        "intern",
        "junior consultant",
        "consultant",
        "senior consultant",
        "principal",
        "partner",
    ),
}


class ValidationError(ValueError):
    """A generator spec field is out of range; carries the field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int = 7
    n_users: int = 1000
    active_rate: float = 1.0
    curr_date: DateMonth = DateMonth(2016, 6)
    bin_width_years: int = 5
    # External-hop probability per work-experience bin; the last entry
    # repeats for older cohorts.
    hop_propensity: tuple[float, ...] = (0.9, 0.75, 0.6, 0.45, 0.3, 0.2)
    promotion_bias: float = 0.7
    industry_switch_prob: float = 0.2
    stay_median_months: float = 18.0
    stay_log_sigma: float = 0.6
    max_jobs: int = 10
    orgs_per_industry: int = 8
    max_career_years: int = 30
    skill_pool_size: int = 60
    max_skills: int = 30
    titles_per_industry: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_CATALOG)
    )

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not is_int(value):
                raise ValidationError(name, f"must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _is_number(value):
                raise ValidationError(name, f"must be a finite number, got {value!r}")
        if not isinstance(self.curr_date, DateMonth):
            raise ValidationError("curr_date", f"must be a DateMonth, got {self.curr_date!r}")
        if self.n_users < 0:
            raise ValidationError("n_users", "must be >= 0")
        for name in ("active_rate", "promotion_bias", "industry_switch_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(name, f"must lie in [0, 1], got {value}")
        if not isinstance(self.hop_propensity, (tuple, list)) or not self.hop_propensity:
            raise ValidationError("hop_propensity", "must be a list of at least one probability")
        for p in self.hop_propensity:
            if not (_is_number(p) and 0.0 <= p <= 1.0):
                raise ValidationError("hop_propensity", f"probabilities must lie in [0, 1], got {p!r}")
        if self.bin_width_years < 1:
            raise ValidationError("bin_width_years", "must be >= 1")
        if self.stay_median_months <= 0:
            raise ValidationError("stay_median_months", "must be positive")
        if self.stay_log_sigma < 0:
            raise ValidationError("stay_log_sigma", "must be >= 0")
        if self.max_jobs < 1:
            raise ValidationError("max_jobs", "must be >= 1")
        if self.orgs_per_industry < 2:
            raise ValidationError("orgs_per_industry", "need >= 2 orgs for external hops")
        if self.max_career_years < 1:
            raise ValidationError("max_career_years", "must be >= 1")
        if self.skill_pool_size < self.max_skills:
            raise ValidationError("skill_pool_size", "must be >= max_skills")
        if self.max_skills < 3:
            raise ValidationError("max_skills", "must be >= 3, the fewest skills a profile lists")
        ladders = self.titles_per_industry
        if not isinstance(ladders, Mapping) or not ladders:
            raise ValidationError("titles_per_industry", "need a mapping of at least one industry")
        for ind, ladder in ladders.items():
            if not (isinstance(ind, str) and isinstance(ladder, (tuple, list))
                    and all(isinstance(title, str) for title in ladder)):
                raise ValidationError(
                    "titles_per_industry", "each industry name maps to a list of title strings"
                )
        lengths = {len(ladder) for ladder in ladders.values()}
        if len(lengths) != 1 or min(lengths) < 2:
            raise ValidationError(
                "titles_per_industry",
                "every industry needs the same ladder length, >= 2 titles",
            )

    @classmethod
    def from_json(cls, path: str | Path) -> "GeneratorSpec":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValidationError("spec", "expected a JSON object")
        for key in raw:
            if key not in _FIELDS:
                raise ValidationError(key, "unknown field")
        kwargs = dict(raw)
        if "curr_date" in kwargs:
            try:
                kwargs["curr_date"] = DateMonth.parse(kwargs["curr_date"])
            except (TypeError, ValueError) as exc:
                raise ValidationError("curr_date", str(exc)) from exc
        # JSON lists become tuples; any other value is left for __post_init__
        # to refuse by name.
        if isinstance(kwargs.get("hop_propensity"), list):
            kwargs["hop_propensity"] = tuple(kwargs["hop_propensity"])
        ladders = kwargs.get("titles_per_industry")
        if isinstance(ladders, dict):
            kwargs["titles_per_industry"] = {
                ind: tuple(titles) if isinstance(titles, list) else titles
                for ind, titles in ladders.items()
            }
        return cls(**kwargs)


# Field names by declared type (annotations are strings under
# `from __future__ import annotations`).
_FIELDS = frozenset(f.name for f in fields(GeneratorSpec))
_INT_FIELDS = tuple(f.name for f in fields(GeneratorSpec) if f.type == "int")
_REAL_FIELDS = tuple(f.name for f in fields(GeneratorSpec) if f.type == "float")


def _is_number(value: object) -> bool:
    """A finite float or an int; not a bool."""
    return is_int(value) or isinstance(value, float) and isfinite(value)


@dataclass
class GenerationResult:
    n_users: int
    n_active: int
    n_hops: int
    corpus_path: Path
    truth_path: Path


def _month_str(total: int) -> str:
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def _draws(rng: random.Random) -> tuple[Callable[[int], int], Callable[[], float]]:
    """(below, normal): rng's uniform-int and standard-normal draws as closures.

    below(n) repeats Random._randbelow_with_getrandbits, so randint(a, b) is
    a + below(b - a + 1) and choice(seq) is seq[below(len(seq))]. normal()
    is the Kinderman-Monahan loop of Random.normalvariate, and
    lognormvariate(mu, sigma) is exp(mu + normal() * sigma). Both consume
    rng's stream exactly as those methods do.
    """
    getrandbits = rng.getrandbits
    uniform = rng.random

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def normal() -> float:
        while True:
            u1 = uniform()
            u2 = 1.0 - uniform()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                return z

    return below, normal


def _truth(spec: GeneratorSpec, hop_counts: list[list[int]], kind_counts: list[list[int]]) -> dict:
    """The sidecar: hop_counts[bin] is [external, internal] for active users,
    kind_counts[internal][demoted] the realized promotions and demotions."""
    last = len(spec.hop_propensity) - 1
    bins = []
    for k, (ext, internal) in enumerate(hop_counts):
        total = ext + internal
        if total:
            bins.append(
                {
                    "lower_years": k * spec.bin_width_years,
                    "upper_years": (k + 1) * spec.bin_width_years,
                    "expected_external_fraction": spec.hop_propensity[min(k, last)],
                    "external_hops": ext,
                    "internal_hops": internal,
                    "realized_external_fraction": ext / total,
                }
            )
    return {
        "seed": spec.seed,
        "n_users": spec.n_users,
        "curr_date": str(spec.curr_date),
        "bin_width_years": spec.bin_width_years,
        "hop_propensity": list(spec.hop_propensity),
        "promotion_bias": spec.promotion_bias,
        "work_exp_bins": bins,
        "promotions": {
            kind: {"promotions": up, "demotions": down}
            for kind, (up, down) in zip(("external", "internal"), kind_counts)
        },
        "job_ladders": {
            ind: list(titles) for ind, titles in spec.titles_per_industry.items()
        },
    }


def generate(
    spec: GeneratorSpec, corpus_path: str | Path, truth_path: str | Path
) -> GenerationResult:
    """Write the corpus JSONL and truth sidecar; byte-identical per seed.

    Each user graduates 1..max_career_years years before curr_date, takes a
    junior job in a random industry and org, and then hops at the end of
    every closed stint, until a stint runs to curr_date, the next one would
    start after it, or max_jobs is reached. Records are written as json.dumps(record, sort_keys=True,
    separators=(",", ":")) would write them, from labels encoded once.
    """
    rng = random.Random(spec.seed)
    below, normal = _draws(rng)
    uniform = rng.random
    sample = rng.sample
    corpus_path = Path(corpus_path)
    truth_path = Path(truth_path)

    industries = tuple(spec.titles_per_industry)
    n_industries = len(industries)
    n_orgs = spec.orgs_per_industry
    titles = [tuple(map(json.dumps, spec.titles_per_industry[ind])) for ind in industries]
    # '"industry":...,"organization":...' for each (industry, org).
    places = [
        tuple(
            f'"industry":{json.dumps(ind)},"organization":{json.dumps(f"{ind} org {k}")}'
            for k in range(1, n_orgs + 1)
        )
        for ind in industries
    ]
    skill_pool = tuple(json.dumps(f"skill {i:02d}") for i in range(spec.skill_pool_size))
    ladder_len = len(titles[0])  # the same for every industry

    # Months count from the earliest possible graduation: months[m] is the
    # encoded text of month m, and curr_m is the analysis date.
    curr_m = 12 * spec.max_career_years
    first = spec.curr_date.ordinal - curr_m
    months = [json.dumps(_month_str(first + m)) for m in range(curr_m + 1)]
    span = curr_m - 12  # young-skewed graduation offset, 1..max_career_years years back

    bin_months = 12 * spec.bin_width_years
    n_bins = curr_m // bin_months + 1
    last = len(spec.hop_propensity) - 1
    p_external = [spec.hop_propensity[min(k, last)] for k in range(n_bins)]
    hop_counts = [[0, 0] for _ in range(n_bins)]
    kind_counts = [[0, 0], [0, 0]]

    active_rate = spec.active_rate
    promotion_bias = spec.promotion_bias
    switch_prob = spec.industry_switch_prob
    can_switch = n_industries > 1
    mu = log(spec.stay_median_months)
    sigma = spec.stay_log_sigma
    max_jobs = spec.max_jobs
    skill_draws = spec.max_skills - 2  # 3..max_skills skills

    n_active = 0
    n_hops = 0
    with open(corpus_path, "w", encoding="utf-8", newline="") as fh:
        write = fh.write
        for i in range(spec.n_users):
            active = uniform() < active_rate
            if active:
                education = 1 + below(3)
                n_skills = 3 + below(skill_draws)
            elif uniform() < 0.5:
                education = 0
                n_skills = 3 + below(skill_draws)
            else:
                education = 1 + below(3)
                n_skills = 0
            skills = sample(skill_pool, n_skills)

            grad_m = curr_m - (12 + int(span * uniform() ** 1.5))
            ind = below(n_industries)
            stratum = (0, 0, 1)[below(3)]
            org = below(n_orgs)
            start_m = grad_m + below(7)

            ladder = titles[ind]
            jobs = []
            while True:
                end_m = start_m + max(1, round(exp(mu + normal() * sigma)))
                closed = end_m < curr_m
                jobs.append('{"end":%s,%s,"start":%s,"title":%s}' % (
                    months[end_m] if closed else "null", places[ind][org], months[start_m],
                    ladder[stratum]))
                if not closed or len(jobs) == max_jobs:
                    break
                next_start = end_m + (0, 0, 1, 2)[below(4)]
                if next_start > curr_m:
                    break

                wk_exp_bin = (end_m - grad_m) // bin_months
                external = uniform() < p_external[wk_exp_bin]
                delta = 1 if uniform() < promotion_bias else -1
                if not 0 <= stratum + delta < ladder_len:
                    delta = -delta
                if external:
                    if can_switch and uniform() < switch_prob:
                        other = below(n_industries - 1)
                        ind = other + (other >= ind)
                        ladder = titles[ind]
                        org = below(n_orgs)
                    else:
                        other = below(n_orgs - 1)
                        org = other + (other >= org)
                if active:
                    hop_counts[wk_exp_bin][not external] += 1
                    kind_counts[not external][delta < 0] += 1
                    n_hops += 1
                stratum += delta
                start_m = next_start

            n_active += active
            write('{"education_count":%d,"grad_date":%s,"jobs":[%s],"skills":[%s],'
                  '"user_id":"u%06d"}\n' % (
                      education, months[grad_m], ",".join(jobs),
                      ",".join(skills), i))

    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(_truth(spec, hop_counts, kind_counts), sort_keys=True, indent=2))
        fh.write("\n")

    return GenerationResult(
        n_users=spec.n_users,
        n_active=n_active,
        n_hops=n_hops,
        corpus_path=corpus_path,
        truth_path=truth_path,
    )
