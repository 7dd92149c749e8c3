"""Autoregressive (Granger-causality) baseline — extension.

The paper discusses autoregressive root-cause methods (cMLP/cLSTM,
SCGL) and reports that, at SQL-template scale, they face a huge
dependency-function space and fail to produce reasonable results; it
therefore skips them in the evaluation.  To make that comparison
concrete, this module implements the *linear* member of the family: a
pairwise Granger-causality ranker.

For each template Q, two ridge-regularised autoregressive models of the
active session are fit — one on the session's own lags, one additionally
on Q's ``#execution`` lags — and the score is the log-ratio of their
residual variances (how much Q's past helps predict the session beyond
the session's own past).  Templates are ranked by the score.

The weaknesses the paper predicts are visible here: the per-template fit
cost scales linearly with the template count, and on collinear business
traffic (every template of one business shares a trend) the attribution
is arbitrary — which the scalability test in the test suite demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.core.case import AnomalyCase

__all__ = ["GrangerRanker"]


def _lag_matrix(series: np.ndarray, lags: int) -> np.ndarray:
    """Columns of lagged values: X[t] = (x[t-1], ..., x[t-lags])."""
    n = len(series) - lags
    return np.column_stack([series[lags - k - 1 : lags - k - 1 + n] for k in range(lags)])


def _ridge_residual_variance(X: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """Residual variance of a ridge regression fit."""
    n, d = X.shape
    gram = X.T @ X + alpha * np.eye(d)
    coef = np.linalg.solve(gram, X.T @ y)
    resid = y - X @ coef
    return float(resid.var()) + 1e-12


class GrangerRanker:
    """Ranks templates by pairwise linear Granger causality on the session.

    Parameters
    ----------
    lags:
        Autoregressive order (in samples of ``interval_s``).
    interval_s:
        Series granularity; 1-minute keeps the problem tractable.
    alpha:
        Ridge regularisation strength.
    max_templates:
        Safety cap: beyond this, only the highest-traffic templates are
        scored (the method's cost is linear in the template count, and
        its answers stop being meaningful long before the cost hurts).
    """

    name = "Granger"

    def __init__(
        self,
        lags: int = 5,
        interval_s: int = 60,
        alpha: float = 1.0,
        max_templates: int | None = None,
    ) -> None:
        if lags < 1:
            raise ValueError("lags must be at least 1")
        self.lags = int(lags)
        self.interval_s = int(interval_s)
        self.alpha = float(alpha)
        self.max_templates = max_templates

    def causality_score(self, session: np.ndarray, execution: np.ndarray) -> float:
        """Granger score of one template's execution series."""
        lags = self.lags
        if len(session) <= 2 * lags + 2:
            return 0.0
        y = session[lags:]
        own = _lag_matrix(session, lags)
        var_restricted = _ridge_residual_variance(own, y, self.alpha)
        full = np.hstack([own, _lag_matrix(execution, lags)])
        var_full = _ridge_residual_variance(full, y, self.alpha)
        return float(np.log(var_restricted / var_full))

    def rank(self, case: AnomalyCase) -> list[str]:
        interval = self.interval_s
        store = (
            case.templates.resample(interval, metrics=("#execution",))
            if interval > 1
            else case.templates
        )
        session = (
            case.active_session.resample(interval, how="mean")
            if interval > 1
            else case.active_session
        ).values
        execs = store.matrix("#execution")
        rows = range(len(store.sql_ids))
        if self.max_templates is not None and len(rows) > self.max_templates:
            traffic = execs.sum(axis=1)
            rows = sorted(rows, key=lambda row: traffic[row], reverse=True)[: self.max_templates]
        scores: dict[str, float] = {}
        for row in rows:
            execution = execs[row, : len(session)]
            scores[store.sql_ids[row]] = self.causality_score(
                session[: len(execution)], execution
            )
        ranked = sorted(scores, key=scores.get, reverse=True)
        # Templates excluded by the cap rank last, in traffic order.
        rest = [sid for sid in store.sql_ids if sid not in scores]
        return ranked + rest
