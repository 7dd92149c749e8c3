"""Failure-injection and degenerate-input tests across the pipeline.

The system must degrade gracefully, never crash, on pathological cases:
empty logs, a single template, constant metrics, zero-variance series,
and windows touching the data boundary.
"""

import numpy as np
import pytest

from repro.collection import TEMPLATE_METRICS, LogStore, TemplateMetricStore
from repro.core import (
    AnomalyCase,
    HsqlIdentifier,
    PinSQL,
    RsqlIdentifier,
    SessionEstimator,
)
from repro.core.session_estimation import SessionEstimate
from repro.dbsim import QueryLog, SecondBatch
from repro.dbsim.monitor import InstanceMetrics
from repro.sqltemplate import TemplateCatalog
from repro.timeseries import TimeSeries


def minimal_case(session_values, exec_map=None, as_=60, ae=90, logstore=None):
    n = len(session_values)
    metrics = InstanceMetrics(
        {"active_session": TimeSeries(np.asarray(session_values, float),
                                      start=0, name="active_session")}
    )
    store = TemplateMetricStore.from_series(
        0, n, {sid: dict.fromkeys(TEMPLATE_METRICS, values) for sid, values in (exec_map or {}).items()}
    )
    return AnomalyCase(
        metrics=metrics,
        templates=store,
        logs=logstore or LogStore(),
        catalog=TemplateCatalog(),
        anomaly_start=as_,
        anomaly_end=ae,
    )


class TestDegenerateCases:
    def test_case_with_no_templates(self):
        case = minimal_case(np.ones(120))
        result = PinSQL().analyze(case)
        assert result.hsql_ids == []
        assert result.rsql_ids == []

    def test_single_template_case(self):
        n = 120
        log = QueryLog()
        arrive = np.arange(0, n * 1000, 200, dtype=np.int64)
        log.append(SecondBatch("ONLY", arrive, np.full(len(arrive), 50.0),
                               np.ones(len(arrive))))
        store = LogStore()
        store.ingest_query_log(log)
        case = minimal_case(
            np.ones(n), exec_map={"ONLY": np.full(n, 5.0)}, logstore=store
        )
        result = PinSQL().analyze(case)
        assert result.hsql_ids == ["ONLY"]
        assert result.rsql_ids in ([], ["ONLY"])

    def test_all_zero_session(self):
        case = minimal_case(np.zeros(120), exec_map={"A": np.ones(120)})
        result = PinSQL().analyze(case)
        assert isinstance(result.rsql_ids, list)  # no crash, any answer

    def test_constant_session(self):
        case = minimal_case(np.full(120, 7.0), exec_map={"A": np.ones(120)})
        result = PinSQL().analyze(case)
        for s in result.hsql.scores:
            assert np.isfinite(s.impact)

    def test_window_at_data_end(self):
        case = minimal_case(np.ones(120), exec_map={"A": np.ones(120)},
                            as_=90, ae=120)
        assert case.anomaly_indices() == (90, 120)
        PinSQL().analyze(case)

    def test_window_must_fit_data(self):
        with pytest.raises(ValueError):
            minimal_case(np.ones(120), as_=90, ae=200)

    def test_case_requires_active_session(self):
        metrics = InstanceMetrics(
            {"cpu_usage": TimeSeries(np.ones(10), name="cpu_usage")}
        )
        with pytest.raises(ValueError, match="active_session"):
            AnomalyCase(
                metrics=metrics,
                templates=TemplateMetricStore(start=0, end=10),
                logs=LogStore(),
                catalog=TemplateCatalog(),
                anomaly_start=2,
                anomaly_end=5,
            )


class TestEstimatorEdges:
    def test_empty_logstore(self):
        observed = TimeSeries(np.ones(30), start=0)
        estimate = SessionEstimator().estimate(LogStore(), [], observed)
        assert estimate.total.total() == 0.0
        assert estimate.sql_ids == []
        assert estimate.values.shape == (0, 30)

    def test_templates_without_queries(self):
        observed = TimeSeries(np.ones(30), start=0)
        estimate = SessionEstimator().estimate(LogStore(), ["GHOST"], observed)
        assert estimate.get("GHOST").total() == 0.0


class TestIdentifierEdges:
    def test_rsql_on_empty_store(self):
        case = minimal_case(np.ones(120))
        ident = RsqlIdentifier()
        sessions = SessionEstimate(
            sql_ids=[],
            values=np.zeros((0, 120)),
            total=TimeSeries.zeros(120, start=0),
            selected_buckets=np.zeros(0, dtype=np.int64),
        )
        from repro.core.hsql import HsqlRanking

        result = ident.identify(case, HsqlRanking(scores=[], alpha=1, beta=-1), sessions)
        assert result.ranked == []

    def test_hsql_single_template(self):
        case = minimal_case(np.ones(120), exec_map={"A": np.ones(120)})
        sessions = SessionEstimate(
            sql_ids=["A"],
            values=np.ones((1, 120)),
            total=TimeSeries(np.ones(120), start=0),
            selected_buckets=np.zeros(0, dtype=np.int64),
        )
        ranking = HsqlIdentifier().identify(case, sessions)
        assert ranking.ranked_ids == ["A"]
        # With one template, min-max scale degenerates to zero.
        assert ranking.scores[0].scale == 0.0
