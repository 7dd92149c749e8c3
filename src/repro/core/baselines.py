"""Top-SQL baselines (paper Section VIII-A competitors).

Each baseline ranks templates by one aggregated metric over the anomaly
window — the "sort the Top SQL page" workflow of cloud diagnosing
products:

* **Top-EN** — by execution count;
* **Top-RT** — by total response time (equivalent to ranking average
  active session, the metric Performance Insights surfaces);
* **Top-ER** — by examined rows (a CPU-usage proxy).

``Top-All`` is not a separate ranker: the paper defines it as the best
result among the three variants per case, which the evaluation harness
computes from these rankings.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.case import AnomalyCase

__all__ = ["Ranker", "TopMetricRanker", "top_en", "top_rt", "top_er", "BASELINES"]


class Ranker(Protocol):
    """Anything that ranks a case's templates (most suspicious first)."""

    name: str

    def rank(self, case: AnomalyCase) -> list[str]:
        ...


class TopMetricRanker:
    """Ranks templates by one aggregated template metric over [as, ae)."""

    def __init__(self, name: str, metric: str) -> None:
        self.name = name
        self.metric = metric

    def rank(self, case: AnomalyCase) -> list[str]:
        lo, hi = case.anomaly_indices()
        sums = case.templates.matrix(self.metric)[:, lo:hi].sum(axis=1)
        totals = dict(zip(case.sql_ids, sums.tolist()))
        return sorted(totals, key=totals.get, reverse=True)


def top_en() -> TopMetricRanker:
    """Top SQLs of #execution."""
    return TopMetricRanker("Top-EN", "#execution")


def top_rt() -> TopMetricRanker:
    """Top SQLs of total response time."""
    return TopMetricRanker("Top-RT", "total_tres")


def top_er() -> TopMetricRanker:
    """Top SQLs of #examined rows."""
    return TopMetricRanker("Top-ER", "total_examined_rows")


def BASELINES() -> list[TopMetricRanker]:
    """The three Top-SQL baselines evaluated by the paper."""
    return [top_rt(), top_er(), top_en()]
