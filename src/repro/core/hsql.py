"""High-impact SQL identification (paper Section V).

Fuses three per-template scores — all mapping to [−1, 1] — into a
weighted impact on the instance active session:

* **trend-level** — sigmoid-weighted Pearson between the template's
  individual active session and the instance session, emphasising the
  anomaly window;
* **scale-level** — min-max normalised total session over the anomaly
  window, rescaled to [−1, 1];
* **scale-trend-level** — Pearson between the template's *share* of the
  session and the session, catching templates that dominate exactly when
  the anomaly occurs.

The fusion weights adapt: with ``Qmax`` the largest template by scale,
``α = corr(session_Qmax, session)`` and ``β = −α``, so when the biggest
template itself drives the anomaly the scale score dominates, and when
it does not, trend takes over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.case import AnomalyCase
from repro.core.session_estimation import SessionEstimate
from repro.timeseries import (
    pearson,
    pearson_rows,
    sigmoid_anomaly_weights,
    weighted_pearson_rows,
)

__all__ = ["HsqlScores", "HsqlRanking", "HsqlIdentifier"]


@dataclass(frozen=True)
class HsqlScores:
    """Per-template level scores and the fused impact."""

    sql_id: str
    trend: float
    scale: float
    scale_trend: float
    impact: float


@dataclass
class HsqlRanking:
    """Ranked H-SQL identification result."""

    scores: list[HsqlScores]          # sorted by impact, descending
    alpha: float
    beta: float

    @property
    def ranked_ids(self) -> list[str]:
        return [s.sql_id for s in self.scores]

    def impact_of(self, sql_id: str) -> float:
        for s in self.scores:
            if s.sql_id == sql_id:
                return s.impact
        return float("-inf")


class HsqlIdentifier:
    """Computes the three level scores and the fused impact ranking."""

    def __init__(
        self,
        smooth_factor: float = 30.0,
        use_trend: bool = True,
        use_scale: bool = True,
        use_scale_trend: bool = True,
        use_weighted_final_score: bool = True,
    ) -> None:
        if smooth_factor <= 0:
            raise ValueError("smooth_factor must be positive")
        self.smooth_factor = smooth_factor
        self.use_trend = use_trend
        self.use_scale = use_scale
        self.use_scale_trend = use_scale_trend
        self.use_weighted_final_score = use_weighted_final_score

    def identify(self, case: AnomalyCase, sessions: SessionEstimate) -> HsqlRanking:
        """Rank templates by their impact on the instance active session."""
        session = case.active_session
        sql_ids = list(sessions.per_template)
        if not sql_ids:
            return HsqlRanking(scores=[], alpha=1.0, beta=-1.0)
        weights = sigmoid_anomaly_weights(
            case.ts, case.te, case.anomaly_start, case.anomaly_end, self.smooth_factor
        )
        lo, hi = case.anomaly_indices()

        # One templates × seconds matrix; each score is one row-wise pass.
        values = np.vstack([sessions.per_template[sid].values for sid in sql_ids])
        session_values = session.values
        trend = weighted_pearson_rows(values, session_values, weights)
        safe_session = np.where(session_values == 0.0, np.nan, session_values)
        share = np.nan_to_num(values / safe_session, nan=0.0)
        scale_trend = pearson_rows(share, session_values)

        # Min-max normalise raw scales into [-1, 1].
        raw = values[:, lo:hi].sum(axis=1)
        span = raw.max() - raw.min()
        if span <= 0:
            scale = np.zeros(len(sql_ids))
        else:
            scale = 2.0 * (raw - raw.min()) / span - 1.0

        # Adaptive weights: does the largest template drive the session?
        if self.use_weighted_final_score:
            alpha = pearson(values[int(np.argmax(scale))], session_values)
            beta = -alpha
        else:
            alpha = 1.0
            beta = 1.0

        impact = np.zeros(len(sql_ids))
        if self.use_trend:
            impact += beta * trend
        if self.use_scale:
            impact += alpha * scale
        if self.use_scale_trend:
            impact += scale_trend
        scores = [
            HsqlScores(
                sql_id=sql_id,
                trend=float(trend[i]),
                scale=float(scale[i]),
                scale_trend=float(scale_trend[i]),
                impact=float(impact[i]),
            )
            for i, sql_id in enumerate(sql_ids)
        ]
        scores.sort(key=lambda s: s.impact, reverse=True)
        return HsqlRanking(scores=scores, alpha=float(alpha), beta=float(beta))
