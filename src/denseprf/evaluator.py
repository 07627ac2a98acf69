"""Ranking metrics over TREC-style runs plus a paired two-tailed t-test.

Metrics follow the standard evaluation-tool conventions: linear nDCG gain,
unjudged documents count as grade 0, and a query enters a metric's mean only
if it has at least one positive under that metric's own relevance threshold.
The t-test p-value comes from a regularized incomplete-beta evaluation of the
Student-t CDF, so no external stats dependency is needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .pipeline import RunList

MAX_GRADE = 3


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments: one integer grade in [0, 3] per (query, doc).

    The judgments are copied and grouped by query once, at construction, so
    later changes to the mapping passed in change nothing here; ``judgments``
    is a read-only view of the copy.
    """

    judgments: Mapping[tuple[str, str], int]
    _by_query: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        judgments = dict(self.judgments)
        by_query: dict[str, dict[str, int]] = {}
        for (qid, did), grade in judgments.items():
            by_query.setdefault(qid, {})[did] = grade
        object.__setattr__(self, "judgments", MappingProxyType(judgments))
        object.__setattr__(self, "_by_query", by_query)

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[str, str, int]]) -> "Qrels":
        judgments: dict[tuple[str, str], int] = {}
        for qid, did, grade in triples:
            if not 0 <= int(grade) <= MAX_GRADE:
                raise ValueError("grade out of range")
            key = (qid, did)
            if key in judgments:
                raise ValueError(f"duplicate qrel: {qid} {did}")
            judgments[key] = int(grade)
        return cls(judgments)

    @classmethod
    def load(cls, path) -> "Qrels":
        triples = []
        with open(path, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                cols = line.split()
                if len(cols) != 4:
                    raise ValueError(f"malformed qrels line {n}")
                try:
                    grade = int(cols[3])
                except ValueError as exc:
                    raise ValueError(f"malformed qrels line {n}") from exc
                triples.append((cols[0], cols[2], grade))
        return cls.from_triples(triples)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (qid, did), grade in self.judgments.items():
                fh.write(f"{qid} 0 {did} {grade}\n")

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._by_query.get(query_id, {}).get(doc_id, 0)

    def positives(self, query_id: str, threshold: int = 1) -> dict[str, int]:
        judged = self._by_query.get(query_id, {})
        return {did: g for did, g in judged.items() if g >= threshold}

    @property
    def is_graded(self) -> bool:
        """True when any grade exceeds 1 (multi-level judgments)."""
        return any(g > 1 for g in self.judgments.values())


@dataclass(frozen=True)
class MetricReport:
    metric_name: str
    cutoff: int
    per_query: Mapping[str, float]
    mean: float
    binarization_threshold: int | None = None


def _report(name: str, k: int, per_query: dict[str, float], thr=None) -> MetricReport:
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricReport(name, k, per_query, mean, thr)


def mrr_at_k(run: RunList, qrels: Qrels, k: int) -> MetricReport:
    """Reciprocal rank of the first doc judged >= 1 within top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query: dict[str, float] = {}
    for qid, entries in run.by_query().items():
        if not qrels.positives(qid, 1):
            continue
        value = 0.0
        for e in entries[:k]:
            if qrels.grade(qid, e.doc_id) >= 1:
                value = 1.0 / e.rank
                break
        per_query[qid] = value
    return _report("MRR", k, per_query)


def ndcg_at_k(run: RunList, qrels: Qrels, k: int) -> MetricReport:
    """nDCG with linear gain: a doc's gain is its grade."""
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query: dict[str, float] = {}
    for qid, entries in run.by_query().items():
        grades = sorted(qrels.positives(qid, 1).values(), reverse=True)
        idcg = sum(g / math.log2(i + 1) for i, g in enumerate(grades[:k], 1))
        if idcg == 0.0:
            continue
        dcg = sum(
            qrels.grade(qid, e.doc_id) / math.log2(e.rank + 1)
            for e in entries[:k]
        )
        per_query[qid] = dcg / idcg
    return _report("nDCG", k, per_query)


def recall_at_k(
    run: RunList, qrels: Qrels, k: int, binarize_threshold: int | None = None
) -> MetricReport:
    """Fraction of grade>=threshold docs retrieved in the top k.

    Threshold defaults to 2 on graded qrels and 1 on binary qrels.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    thr = binarize_threshold
    if thr is None:
        thr = 2 if qrels.is_graded else 1
    if not 1 <= thr <= MAX_GRADE:
        raise ValueError("binarize threshold out of range")
    per_query: dict[str, float] = {}
    for qid, entries in run.by_query().items():
        relevant = qrels.positives(qid, thr)
        if not relevant:
            continue
        hit = sum(1 for e in entries[:k] if e.doc_id in relevant)
        per_query[qid] = hit / len(relevant)
    return _report("Recall", k, per_query, thr)


# -- paired t-test -----------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ValueError("incomplete beta did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("x outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student-t with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(
    per_query_a: Mapping[str, float], per_query_b: Mapping[str, float]
) -> tuple[float, float, int]:
    """Classic paired t on shared query ids; returns (t, two-sided p, n)."""
    shared = sorted(set(per_query_a) & set(per_query_b))
    n = len(shared)
    if n < 2:
        raise ValueError("degenerate t-test")
    diffs = [per_query_a[q] - per_query_b[q] for q in shared]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        raise ValueError("degenerate t-test")
    t = mean / math.sqrt(var / n)
    p = student_t_two_sided_p(t, n - 1)
    return t, p, n
