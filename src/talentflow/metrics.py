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

Every aggregate is an array pass over a StintTable or a HopTable:
CorpusIndex.build takes the profiles or their table, and the functions
that take hops or level-gain records accept the tables or plain object
lists (HopTable.of, LevelGainTable.of). The per-user cohort values,
graduation month and skill count, are columns of the ProfileTable given
as profiles_by_id; each hop's user is joined to one row of it once. A
mean stays an exact integer sum over a count until one division, so it is
the same float Python's sum / len gives; bins use float64 floor division
as the scalar definitions above do. Only per-key lookups (the CorpusIndex
dicts, job_level) are dicts, one entry per distinct key.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hops import Hop, HopKind, HopTable
from .model import (
    NO_EXPERIENCE,
    AnalysisConfig,
    DateMonth,
    JobKey,
    JobRecord,
    OrgJobKey,
    ProfileTable,
    RowViews,
    StintTable,
    UserProfile,
    cell_counts,
    distinct_counts,
    is_int,
    months_between,
    read_only,
    work_experience_months,
    year_bins,
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
    negative_experience_jobs: int
    future_jobs: int
    invalid_period_jobs: int

    @classmethod
    def build(
        cls, profiles: Iterable[UserProfile] | StintTable, config: AnalysisConfig
    ) -> "CorpusIndex":
        # Only the stints usable_stints keeps feed an aggregate, as in hop
        # extraction and graph support.
        stints = StintTable.of(profiles, config.curr_date)
        defined = stints.work_exp >= 0
        wk = stints.work_exp[defined]
        org_key = stints.org_key[defined]
        support = distinct_counts(
            org_key, stints.user_code[stints.user[defined]], len(stints.org_keys)
        )
        return cls(
            config=config,
            wk_exp_by_jobkey=_means(stints.job_keys, stints.job_key[defined], wk),
            age_by_jobkey=_means(
                stints.job_keys, stints.job_key, config.curr_date.ordinal - stints.start
            ),
            wk_exp_by_orgjob=_means(stints.org_keys, org_key, wk),
            support_by_orgjob={
                stints.org_keys[k]: n for k, n in enumerate(support.tolist()) if n
            },
            negative_experience_jobs=stints.drops.negative_experience_jobs,
            future_jobs=stints.drops.future_jobs,
            invalid_period_jobs=stints.drops.invalid_period_jobs,
        )


def _means(keys: Sequence, codes: np.ndarray, values: np.ndarray) -> dict:
    """Mean value per key that occurs: an exact int sum over a count.

    The sums stay int64 and are divided once, as Python ints, so every
    mean is the float sum(values) / len(values) gives.
    """
    sums = np.zeros(len(keys), np.int64)
    np.add.at(sums, codes, values)
    counts = np.bincount(codes, minlength=len(keys))
    return {
        keys[k]: total / n
        for k, (total, n) in enumerate(zip(sums.tolist(), counts.tolist()))
        if n
    }


def _known(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Optional per-key values as (float64 array, known mask); None reads 0."""
    n = len(values)
    known = np.fromiter((v is not None for v in values), bool, n)
    return np.fromiter((0.0 if v is None else v for v in values), np.float64, n), known


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


LABELS = (LevelGainLabel.PROMOTION, LevelGainLabel.DEMOTION, LevelGainLabel.NEUTRAL)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class LevelGainTable(RowViews):
    """Level-gain records as columns; a read-only Sequence[LevelGainRecord].

    Record i labels hop hop[i] of hops: source_level[i], dest_level[i] and
    gain[i] are float64 months, label[i] an index into LABELS. Indexing
    builds a LevelGainRecord view; a table equals a list of equal records.
    The arrays are read-only.
    """

    hops: HopTable
    hop: np.ndarray  # intp
    source_level: np.ndarray  # float64
    dest_level: np.ndarray  # float64
    gain: np.ndarray  # float64
    label: np.ndarray  # intp

    def __post_init__(self) -> None:
        read_only(self.hop, self.source_level, self.dest_level, self.gain, self.label)

    @classmethod
    def of(cls, records: Iterable[LevelGainRecord]) -> "LevelGainTable":
        """The records as a table; a LevelGainTable is returned as is.

        Plain records keep their own levels, gain and label.
        """
        if isinstance(records, LevelGainTable):
            return records
        records = list(records)
        n = len(records)

        def floats(name: str) -> np.ndarray:
            return np.fromiter((getattr(r, name) for r in records), np.float64, n)

        return cls(
            HopTable.of([r.hop for r in records]),
            np.arange(n),
            floats("source_level_months"),
            floats("dest_level_months"),
            floats("gain_months"),
            np.fromiter((LABELS.index(r.label) for r in records), np.intp, n),
        )

    @property
    def external(self) -> np.ndarray:
        return self.hops.external[self.hop]

    @property
    def stay(self) -> np.ndarray:
        return self.hops.stay[self.hop]

    def __len__(self) -> int:
        return len(self.hop)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.hop, self.source_level, self.dest_level, self.gain, self.label

    def _view(self, i: int, src: float, dst: float, gain: float, label: int) -> LevelGainRecord:
        return LevelGainRecord(
            hop=self.hops[i],
            source_level_months=src,
            dest_level_months=dst,
            gain_months=gain,
            label=LABELS[label],
        )

    def __repr__(self) -> str:
        return f"LevelGainTable({len(self)} records over {len(self.hops)} hops)"


def level_gain(hop: Hop, index: CorpusIndex) -> LevelGainRecord | None:
    """Label one hop by level gain; None when either endpoint lacks support."""
    records = level_gains([hop], index)
    return records[0] if records else None


def level_gains(hops: Iterable[Hop], index: CorpusIndex) -> LevelGainTable:
    """Level-gain records for every hop whose endpoints are both supported.

    Takes a HopTable or Hop objects; records keep the hops' order.
    """
    table = HopTable.of(hops)
    stints = table.stints
    level, supported = _known([job_level(key, index) for key in stints.org_keys])
    src_key = stints.org_key[table.src]
    dst_key = stints.org_key[table.dst]
    hop = np.flatnonzero(supported[src_key] & supported[dst_key])
    src_level = level[src_key[hop]]
    dst_level = level[dst_key[hop]]
    gain = dst_level - src_level
    label = np.where(gain > 0, 0, np.where(gain < 0, 1, 2))
    return LevelGainTable(table, hop, src_level, dst_level, gain, label)


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
    table = LevelGainTable.of(records)
    counts = np.bincount(
        table.external * len(LABELS) + table.label, minlength=2 * len(LABELS)
    ).tolist()
    internal, external = counts[: len(LABELS)], counts[len(LABELS):]
    return PromotionSummary(
        external_promotions=external[0],
        external_demotions=external[1],
        external_neutral=external[2],
        internal_promotions=internal[0],
        internal_demotions=internal[1],
        internal_neutral=internal[2],
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


def _axis_bins(
    axis: CohortAxis, stints: StintTable, src: np.ndarray, index: CorpusIndex,
    profiles: ProfileTable, row: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per hop, k of its bin [k*w, (k+1)*w) on one axis, and where k is defined.

    The time axes bin by w whole years; skill counts reuse the same width.
    Hop i leaves stint src[i] of stints; row[i] is its user's row in profiles.
    """
    width = index.config.group_bin_width_years
    if axis is CohortAxis.SKILL_COUNT:
        return profiles.skill_count[row] // width, np.ones(len(row), bool)
    if axis is CohortAxis.WORK_EXP:
        end = stints.ends_at(index.config.curr_date)[src]
        months = work_experience_months(end, profiles.grad[row])
        return year_bins(months, width), months != NO_EXPERIENCE
    ages, known = _known([job_age_of_jobkey(key, index) for key in stints.job_keys])
    key = stints.job_key[src]
    return year_bins(ages, width)[key], known[key]


def _profile_rows(stints: StintTable, profiles: ProfileTable) -> np.ndarray:
    """Per user of the stint table, the row in profiles of the later
    profile with that user's id, or -1 where no profile has it."""
    if profiles is stints.source:
        # Equal ids share a code; each code's last row is the later profile.
        code = profiles.user_code
        latest = np.zeros(int(code.max(initial=-1)) + 1, np.intp)
        np.maximum.at(latest, code, np.arange(len(code)))
        return latest[code]
    row_by_id = {u: r for r, u in enumerate(profiles.user_id)}
    return np.fromiter(
        (row_by_id.get(u, -1) for u in stints.user_ids), np.intp, len(stints.user_ids)
    )


def external_hop_fraction(
    hops: Iterable[Hop],
    axes: Sequence[CohortAxis],
    index: CorpusIndex,
    profiles_by_id: Mapping[str, UserProfile] | ProfileTable,
) -> CohortStats:
    """Per-cohort fraction of hop events that leave the organization.

    A hop is attributed to its source job. profiles_by_id maps user ids to
    profiles, or is the ProfileTable of the profiles; each hop user's
    graduation month and skill count are read from it, from the later
    profile where an id repeats. A Mapping's values are packed into a
    ProfileTable first. Hops of users missing from it, and hops with an
    undefined value on any requested axis, are excluded. Cells whose event
    count falls below cohort_min_support carry fraction=None and
    suppressed=True.
    """
    table = HopTable.of(hops)
    if not isinstance(profiles_by_id, ProfileTable):
        profiles_by_id = ProfileTable.of(profiles_by_id.values())
    row = _profile_rows(table.stints, profiles_by_id)[table.user]
    # Hops of users without a profile go before row indexes any column.
    hop = np.flatnonzero(row >= 0)
    src, row = table.src[hop], row[hop]
    keep = np.ones(len(hop), bool)
    bins = []
    for axis in axes:
        k, defined = _axis_bins(axis, table.stints, src, index, profiles_by_id, row)
        bins.append(k)
        keep &= defined
    # With no axes, one all-zero column puts every hop in the cell ().
    columns = [k[keep] for k in bins] or [np.zeros(len(hop), np.int64)]
    cell_keys, support, external = cell_counts(*columns, mask=table.external[hop[keep]])
    cells = zip(*(k.tolist() for k in cell_keys))

    cohorts: dict[tuple[CohortSpec, ...], CohortCell] = {}
    width = index.config.group_bin_width_years
    min_support = index.config.cohort_min_support
    for ks, ext, n in zip(cells, external.tolist(), support.tolist()):
        suppressed = n < min_support
        key = tuple(
            CohortSpec(axis, float(k * width), float((k + 1) * width)) for axis, k in zip(axes, ks)
        )
        cohorts[key] = CohortCell(
            external_hops=ext,
            internal_hops=n - ext,
            fraction=None if suppressed else ext / n,
            support=n,
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
    if not is_int(bin_width_months) or bin_width_months < 1:
        raise ValueError("bin_width_months must be a positive integer")
    table = LevelGainTable.of(records)
    if not len(table):
        return []
    # "external" sorts before "internal", so external bins come first.
    stay_bin = table.stay // bin_width_months
    internal = ~table.external
    promoted = table.label == LABELS.index(LevelGainLabel.PROMOTION)
    (k_bin, k_internal), sizes, promotions = cell_counts(stay_bin, internal, mask=promoted)
    bins = []
    for k, is_internal, n, promos in zip(
        k_bin.tolist(), k_internal.tolist(), sizes.tolist(), promotions.tolist()
    ):
        suppressed = n < config.cohort_min_support
        bins.append(
            StayBin(
                lower_months=k * bin_width_months,
                upper_months=(k + 1) * bin_width_months,
                kind=HopKind.INTERNAL if is_internal else HopKind.EXTERNAL,
                n_hops=n,
                n_promotions=promos,
                fraction=None if suppressed else promos / n,
                suppressed=suppressed,
            )
        )
    return bins
