"""Career metrics over a profile corpus.

Per-person quantities:

* work experience of a job = job end minus the person's latest graduation
  date (undefined without a graduation date, or when negative);
* job age = analysis date minus job start.

Aggregates average those values over job-record instances -- a person who
lists the same job twice contributes twice. The seniority level of a
(title, organization) job is its average work experience, gated by a
minimum number of supporting people; the level gain of a hop (destination
level minus source level) labels it a promotion or a demotion by sign.

Cohort statistics bucket hop events by the source job's attributes (work
experience at the source job's end, the mean age of the source job's
(title, industry) pair, or the user's skill count) and report, per cell,
the fraction of hops that leave the organization. Cells with fewer events
than the cohort minimum support are suppressed as unreliable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .hops import Hop, HopKind
from .model import (
    AnalysisConfig,
    DateMonth,
    JobKey,
    JobRecord,
    OrgJobKey,
    StintDrops,
    UserProfile,
    months_between,
    usable_jobs,
)


class FutureJobError(ValueError):
    """A job that starts after the analysis date has no age."""


def work_experience(
    profile: UserProfile, job: JobRecord, curr_date: DateMonth
) -> int | None:
    """Months from the latest graduation to the job's end; None if undefined.

    Undefined when the profile has no graduation date or the job ended
    before graduation (data noise, excluded rather than clamped to zero).
    """
    if profile.grad_date is None:
        return None
    m = months_between(profile.grad_date, job.end_or(curr_date))
    return m if m >= 0 else None


def job_age(job: JobRecord, config: AnalysisConfig) -> int:
    """Months from the job's start to the analysis date; always >= 0."""
    m = months_between(job.start, config.curr_date)
    if m < 0:
        raise FutureJobError(f"job starts {job.start} after analysis date {config.curr_date}")
    return m


@dataclass
class CorpusIndex:
    """Precomputed per-key aggregates for one corpus + config.

    Built once, queried many times; all downstream metric lookups
    (mean experience, mean age, job level) read the final means stored here.
    support_by_orgjob counts distinct people with a defined work experience.
    """

    config: AnalysisConfig
    wk_exp_by_jobkey: dict[JobKey, float]
    age_by_jobkey: dict[JobKey, float]
    wk_exp_by_orgjob: dict[OrgJobKey, float]
    support_by_orgjob: dict[OrgJobKey, int]
    skill_count_by_user: dict[str, int]
    negative_experience_jobs: int
    future_jobs: int
    invalid_period_jobs: int

    @classmethod
    def build(cls, profiles: Iterable[UserProfile], config: AnalysisConfig) -> "CorpusIndex":
        # Only the stints usable_jobs keeps feed an aggregate, as in hop
        # extraction and graph support.
        wk_job: dict[JobKey, list[int]] = defaultdict(list)
        age_job: dict[JobKey, list[int]] = defaultdict(list)
        wk_org: dict[OrgJobKey, list[int]] = defaultdict(list)
        supporters: dict[OrgJobKey, set[str]] = defaultdict(set)
        skills: dict[str, int] = {}
        drops = StintDrops()
        negative = 0
        for p in profiles:
            skills[p.user_id] = len(p.skills)
            for j in usable_jobs(p, config.curr_date, drops):
                age_job[j.key].append(job_age(j, config))
                wk = work_experience(p, j, config.curr_date)
                if wk is None:
                    if p.grad_date is not None:
                        negative += 1  # ended before graduation
                    continue
                wk_job[j.key].append(wk)
                wk_org[j.org_key].append(wk)
                supporters[j.org_key].add(p.user_id)
        return cls(
            config=config,
            wk_exp_by_jobkey=_means(wk_job),
            age_by_jobkey=_means(age_job),
            wk_exp_by_orgjob=_means(wk_org),
            support_by_orgjob={key: len(users) for key, users in supporters.items()},
            skill_count_by_user=skills,
            negative_experience_jobs=negative,
            future_jobs=drops.future_jobs,
            invalid_period_jobs=drops.invalid_period_jobs,
        )


def _means(values_by_key: Mapping[object, list[int]]) -> dict:
    # An exact int sum over a count: the same float at every lookup.
    return {key: sum(values) / len(values) for key, values in values_by_key.items()}


def work_experience_of_jobkey(key: JobKey, index: CorpusIndex) -> float | None:
    """Mean work experience (months) over instances of (title, industry).

    None when no instance has a defined work experience (no support).
    """
    return index.wk_exp_by_jobkey.get(key)


def job_age_of_jobkey(key: JobKey, index: CorpusIndex) -> float | None:
    """Mean job age (months) over instances of (title, industry)."""
    return index.age_by_jobkey.get(key)


def job_level(key: OrgJobKey, index: CorpusIndex) -> float | None:
    """Seniority proxy: mean work experience of the job's holders, in months.

    None (no support) when fewer than min_support distinct people contribute
    a defined work-experience value for this (title, organization).
    """
    if index.support_by_orgjob.get(key, 0) < index.config.min_support:
        return None
    return index.wk_exp_by_orgjob[key]


class LevelGainLabel(str, Enum):
    PROMOTION = "promotion"
    DEMOTION = "demotion"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class LevelGainRecord:
    """A hop with both endpoint levels resolved; label follows the sign.

    NEUTRAL (exactly zero gain) is kept as a defensive category; real
    corpora essentially never produce it because levels are means.
    """

    hop: Hop
    source_level_months: float
    dest_level_months: float
    gain_months: float
    label: LevelGainLabel


def level_gain(hop: Hop, index: CorpusIndex) -> LevelGainRecord | None:
    """Label one hop by level gain; None when either endpoint lacks support."""
    src = job_level(hop.source.org_key, index)
    dst = job_level(hop.dest.org_key, index)
    if src is None or dst is None:
        return None
    gain = dst - src
    if gain > 0:
        label = LevelGainLabel.PROMOTION
    elif gain < 0:
        label = LevelGainLabel.DEMOTION
    else:
        label = LevelGainLabel.NEUTRAL
    return LevelGainRecord(
        hop=hop,
        source_level_months=src,
        dest_level_months=dst,
        gain_months=gain,
        label=label,
    )


def level_gains(hops: Iterable[Hop], index: CorpusIndex) -> list[LevelGainRecord]:
    """Level-gain records for every hop whose endpoints are both supported."""
    out = []
    for h in hops:
        rec = level_gain(h, index)
        if rec is not None:
            out.append(rec)
    return out


@dataclass(frozen=True)
class PromotionSummary:
    """Hop counts by kind and label, plus the derived probabilities."""

    external_promotions: int
    external_demotions: int
    external_neutral: int
    internal_promotions: int
    internal_demotions: int
    internal_neutral: int

    @property
    def external_total(self) -> int:
        return self.external_promotions + self.external_demotions + self.external_neutral

    @property
    def internal_total(self) -> int:
        return self.internal_promotions + self.internal_demotions + self.internal_neutral

    @property
    def total(self) -> int:
        return self.external_total + self.internal_total

    @property
    def p_promotion(self) -> float | None:
        if self.total == 0:
            return None
        return (self.external_promotions + self.internal_promotions) / self.total

    @property
    def p_promotion_given_internal(self) -> float | None:
        if self.internal_total == 0:
            return None
        return self.internal_promotions / self.internal_total

    @property
    def p_promotion_given_external(self) -> float | None:
        if self.external_total == 0:
            return None
        return self.external_promotions / self.external_total


def promotion_summary(records: Iterable[LevelGainRecord]) -> PromotionSummary:
    """Tabulate supported level-gain records into the 2x2(+neutral) summary."""
    counts = {(k, l): 0 for k in HopKind for l in LevelGainLabel}
    for r in records:
        counts[(r.hop.kind, r.label)] += 1
    return PromotionSummary(
        external_promotions=counts[(HopKind.EXTERNAL, LevelGainLabel.PROMOTION)],
        external_demotions=counts[(HopKind.EXTERNAL, LevelGainLabel.DEMOTION)],
        external_neutral=counts[(HopKind.EXTERNAL, LevelGainLabel.NEUTRAL)],
        internal_promotions=counts[(HopKind.INTERNAL, LevelGainLabel.PROMOTION)],
        internal_demotions=counts[(HopKind.INTERNAL, LevelGainLabel.DEMOTION)],
        internal_neutral=counts[(HopKind.INTERNAL, LevelGainLabel.NEUTRAL)],
    )


class CohortAxis(str, Enum):
    WORK_EXP = "work_exp"
    JOB_AGE = "job_age"
    SKILL_COUNT = "skill_count"


@dataclass(frozen=True, order=True)
class CohortSpec:
    """One half-open bucket [bin_lower, bin_upper) on a cohort axis.

    Bounds are in years for the time axes and in counts for SKILL_COUNT.
    """

    axis: CohortAxis
    bin_lower: float
    bin_upper: float


@dataclass(frozen=True)
class CohortCell:
    """Hop mix of one cohort cell; fraction is None when suppressed."""

    external_hops: int
    internal_hops: int
    fraction: float | None
    support: int
    suppressed: bool


@dataclass
class CohortStats:
    """External-hop fractions keyed by tuples of cohort buckets."""

    axes: tuple[CohortAxis, ...]
    cohorts: dict[tuple[CohortSpec, ...], CohortCell]

    def sorted_cells(self) -> list[tuple[tuple[CohortSpec, ...], CohortCell]]:
        return sorted(self.cohorts.items(), key=lambda kv: kv[0])


def _bin_index(
    hop: Hop,
    axis: CohortAxis,
    index: CorpusIndex,
    profile: UserProfile,
    age_bins: dict[JobKey, int | None],
) -> int | None:
    """k of the hop's bin [k*w, (k+1)*w) on one axis; None if undefined.

    The time axes bin by w whole years; skill counts reuse the same width.
    age_bins caches the job-age bin, which depends only on the source key.
    """
    width = index.config.group_bin_width_years
    if axis is CohortAxis.SKILL_COUNT:
        return int(index.skill_count_by_user.get(hop.user_id, 0) // width)
    if axis is CohortAxis.WORK_EXP:
        months = work_experience(profile, hop.source, index.config.curr_date)
        return None if months is None else int((months / 12.0) // width)
    key = hop.source.key
    if key not in age_bins:
        months = job_age_of_jobkey(key, index)
        age_bins[key] = None if months is None else int((months / 12.0) // width)
    return age_bins[key]


def external_hop_fraction(
    hops: Iterable[Hop],
    axes: Sequence[CohortAxis],
    index: CorpusIndex,
    profiles_by_id: Mapping[str, UserProfile],
) -> CohortStats:
    """Per-cohort fraction of hop events that leave the organization.

    A hop is attributed to its source job. Hops with an undefined value on
    any requested axis are excluded. Cells whose event count falls below
    cohort_min_support carry fraction=None and suppressed=True.
    """
    counts: dict[tuple[int, ...], list[int]] = defaultdict(lambda: [0, 0])
    age_bins: dict[JobKey, int | None] = {}
    for hop in hops:
        profile = profiles_by_id.get(hop.user_id)
        if profile is None:
            continue
        bins = tuple(_bin_index(hop, axis, index, profile, age_bins) for axis in axes)
        if None in bins:
            continue
        cell = counts[bins]
        if hop.kind is HopKind.EXTERNAL:
            cell[0] += 1
        else:
            cell[1] += 1

    cohorts: dict[tuple[CohortSpec, ...], CohortCell] = {}
    width = index.config.group_bin_width_years
    min_support = index.config.cohort_min_support
    for bins, (ext, internal) in counts.items():
        support = ext + internal
        suppressed = support < min_support
        key = tuple(
            CohortSpec(axis, float(k * width), float((k + 1) * width)) for axis, k in zip(axes, bins)
        )
        cohorts[key] = CohortCell(
            external_hops=ext,
            internal_hops=internal,
            fraction=None if suppressed else ext / support,
            support=support,
            suppressed=suppressed,
        )
    return CohortStats(axes=tuple(axes), cohorts=cohorts)


@dataclass(frozen=True)
class StayBin:
    """Promotion mix of hops grouped by duration of stay at the source job."""

    lower_months: int
    upper_months: int
    kind: HopKind
    n_hops: int
    n_promotions: int
    fraction: float | None
    suppressed: bool


def promotion_by_stay(
    records: Iterable[LevelGainRecord],
    bin_width_months: int,
    config: AnalysisConfig,
) -> list[StayBin]:
    """Promotion fraction and counts per stay-duration bin and hop kind.

    Bins are half-open [k*w, (k+1)*w) months. Bins under cohort_min_support
    are reported with fraction=None and suppressed=True.
    """
    if bin_width_months < 1:
        raise ValueError("bin_width_months must be a positive integer")
    grouped: dict[tuple[int, HopKind], list[int]] = defaultdict(lambda: [0, 0])
    for r in records:
        k = r.hop.duration_of_stay_months // bin_width_months
        cell = grouped[(k, r.hop.kind)]
        cell[0] += 1
        if r.label is LevelGainLabel.PROMOTION:
            cell[1] += 1

    bins = []
    for (k, kind), (n, promos) in sorted(
        grouped.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        suppressed = n < config.cohort_min_support
        bins.append(
            StayBin(
                lower_months=k * bin_width_months,
                upper_months=(k + 1) * bin_width_months,
                kind=kind,
                n_hops=n,
                n_promotions=promos,
                fraction=None if suppressed else promos / n,
                suppressed=suppressed,
            )
        )
    return bins
