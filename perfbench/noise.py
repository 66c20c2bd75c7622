"""Seeded noise injector for the report_dirty workload.

Rewrites a clean corpus so that ingest has real reject, repair and label
normalization work to do, while the profiles ingest keeps stay exactly the
clean ones. The injector adds:

* ASCII case and whitespace variants of job titles, organizations and
  industries;
* malformed lines, duplicate user_id lines and blank lines;
* a minority of per-organization industry conflicts, capped per
  organization so the clean industry keeps a strict majority and ingest
  repairs every conflict back to it.

The returned counts are exact. A conflict is counted by comparing labels in
their normalized form after every change has been made, so a case or
whitespace variant of the clean industry is never counted as a conflict.
The injector streams the corpus twice and holds only per-organization
counts and a short window of recent lines, so set-up leaves no large heap
behind in the benchmark process.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

# Probabilities of each kind of noise: per label, per job and per line.
LABEL_VARIANT_RATE = 0.3
INDUSTRY_CONFLICT_RATE = 0.02
MALFORMED_LINE_RATE = 0.02
DUPLICATE_LINE_RATE = 0.02
BLANK_LINE_RATE = 0.02

# Reason names as ingest reports them.
MALFORMED = "MALFORMED"
DUPLICATE_ID = "DUPLICATE_ID"

LABEL_FIELDS = ("title", "organization", "industry")
_CASES = (str.lower, str.upper, str.capitalize, str.swapcase, lambda w: w[:-1] + w[-1:].upper())
_SEPARATORS = (" ", "  ", "\t", " \t ", "   ")
_EDGES = ("", "", " ", "\t", "  ", "\n", " \t")
_DUPLICATE_WINDOW = 64


def canonical(label: str) -> str:
    """The normalized form of an ASCII label: trimmed, single-spaced, lowercase.

    Written independently of the program's normalize_label, so that the
    counts stay an oracle for it on the variants this module produces.
    """
    return " ".join(label.split()).lower()


@dataclass
class NoiseCounts:
    """What the injector did, in the units ingest reports."""

    label_variants: int = 0
    industry_conflicts: int = 0
    malformed_lines: int = 0
    duplicate_lines: int = 0
    blank_lines: int = 0

    def rejection_reasons(self) -> dict[str, int]:
        """The rejection_reasons ingest must report for the noisy corpus."""
        reasons = {MALFORMED: self.malformed_lines, DUPLICATE_ID: self.duplicate_lines}
        return {reason: n for reason, n in reasons.items() if n}


def _label_variant(rng: random.Random, label: str) -> str:
    words = [rng.choice(_CASES)(word) for word in label.split(" ")]
    out = words[0]
    for word in words[1:]:
        out += rng.choice(_SEPARATORS) + word
    return rng.choice(_EDGES) + out + rng.choice(_EDGES)


def _malformed_line(rng: random.Random, k: int) -> str:
    user_id = f"noise{k:06d}"
    job = {"title": "clerk", "organization": "noise org", "industry": "noise",
           "start": "2010-01", "end": None}
    kind = rng.randrange(6)
    if kind == 0:
        return '{"user_id": "%s", "jobs": [' % user_id  # truncated JSON
    if kind == 1:
        return json.dumps([user_id, "not an object"])
    if kind == 2:
        return json.dumps({"user_id": " ", "education_count": 1, "skills": ["x"], "jobs": [job]})
    if kind == 3:
        return json.dumps({"user_id": user_id, "education_count": 1, "skills": ["x"],
                           "jobs": [dict(job, start="2010-13")]})
    if kind == 4:
        return json.dumps({"user_id": user_id, "education_count": 1, "skills": ["x"],
                           "jobs": [dict(job, title=" \t ")]})
    return json.dumps({"user_id": user_id, "education_count": -1, "skills": ["x"], "jobs": []})


def _org_industries(clean_path: Path) -> tuple[dict[str, str], Counter[str]]:
    industry_of: dict[str, str] = {}
    jobs_at: Counter[str] = Counter()
    with open(clean_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            for job in json.loads(line)["jobs"]:
                org = canonical(job["organization"])
                industry = canonical(job["industry"])
                if industry_of.setdefault(org, industry) != industry:
                    raise ValueError(f"clean corpus gives {org!r} two industries")
                jobs_at[org] += 1
    return industry_of, jobs_at


def inject(clean_path: str | Path, dirty_path: str | Path, seed: int) -> NoiseCounts:
    """Write a noisy copy of a clean corpus; returns exact counts of the noise.

    The same clean corpus and seed give the same bytes. The clean
    corpus must give each organization one industry.
    """
    rng = random.Random(f"perfbench-noise:{seed}")
    industry_of, jobs_at = _org_industries(Path(clean_path))
    industries = sorted(set(industry_of.values()))
    conflicts_at: Counter[str] = Counter()
    counts = NoiseCounts()
    recent: deque[str] = deque(maxlen=_DUPLICATE_WINDOW)

    with open(clean_path, "r", encoding="utf-8") as src, \
            open(dirty_path, "w", encoding="utf-8", newline="") as out:
        for line in src:
            if not line.strip():
                continue
            record = json.loads(line)
            for job in record["jobs"]:
                org = canonical(job["organization"])
                home = industry_of[org]
                # Keep the clean industry a strict majority at every org.
                if (
                    len(industries) > 1
                    and conflicts_at[org] < (jobs_at[org] - 1) // 2
                    and rng.random() < INDUSTRY_CONFLICT_RATE
                ):
                    job["industry"] = rng.choice([i for i in industries if i != home])
                    conflicts_at[org] += 1
                for name in LABEL_FIELDS:
                    if rng.random() < LABEL_VARIANT_RATE:
                        varied = _label_variant(rng, job[name])
                        if varied != job[name]:
                            job[name] = varied
                            counts.label_variants += 1
                if canonical(job["industry"]) != home:
                    counts.industry_conflicts += 1
            text = json.dumps(record)
            out.write(text + "\n")
            recent.append(text)

            if rng.random() < BLANK_LINE_RATE:
                out.write(rng.choice(("\n", "  \n", "\t\n")))
                counts.blank_lines += 1
            if rng.random() < MALFORMED_LINE_RATE:
                out.write(_malformed_line(rng, counts.malformed_lines) + "\n")
                counts.malformed_lines += 1
            if rng.random() < DUPLICATE_LINE_RATE:
                # A repeat of an earlier user's line: ingest keeps the first.
                out.write(rng.choice(recent) + "\n")
                counts.duplicate_lines += 1
    return counts
