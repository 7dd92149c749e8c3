"""Tests for H-SQL identification (paper Section V)."""

import numpy as np
import pytest

from repro.core import HsqlIdentifier, SessionEstimator
from repro.core.session_estimation import SessionEstimate
from repro.core.case import AnomalyCase
from repro.collection import LogStore, TemplateMetricStore
from repro.dbsim.monitor import InstanceMetrics
from repro.sqltemplate import TemplateCatalog
from repro.timeseries import TimeSeries, pearson, sigmoid_anomaly_weights, weighted_pearson


def synthetic_case_and_sessions(n=600, as_=400, ae=600):
    """Hand-built sessions: one template drives the anomaly, one has big
    stable traffic, one is tiny noise."""
    rng = np.random.default_rng(0)
    driver = np.full(n, 0.5) + 0.05 * rng.normal(size=n)
    driver[as_:ae] += 30.0
    stable = np.full(n, 20.0) + 0.5 * rng.normal(size=n)
    tiny = np.abs(0.01 * rng.normal(size=n))
    total = driver + stable + tiny

    metrics = InstanceMetrics(
        {"active_session": TimeSeries(total, start=0, name="active_session")}
    )
    templates = TemplateMetricStore(start=0, end=n)
    for sid in ("DRIVER", "STABLE", "TINY"):
        templates.put(sid, "#execution", TimeSeries(np.ones(n), start=0))
    case = AnomalyCase(
        metrics=metrics,
        templates=templates,
        logs=LogStore(),
        catalog=TemplateCatalog(),
        anomaly_start=as_,
        anomaly_end=ae,
    )
    sessions = SessionEstimate(
        per_template={
            "DRIVER": TimeSeries(driver, start=0),
            "STABLE": TimeSeries(stable, start=0),
            "TINY": TimeSeries(tiny, start=0),
        },
        total=TimeSeries(total, start=0),
        selected_buckets=np.zeros(0, dtype=np.int64),
    )
    return case, sessions


class TestScores:
    def test_driver_ranks_first(self):
        case, sessions = synthetic_case_and_sessions()
        ranking = HsqlIdentifier().identify(case, sessions)
        assert ranking.ranked_ids[0] == "DRIVER"

    def test_scores_bounded(self):
        case, sessions = synthetic_case_and_sessions()
        ranking = HsqlIdentifier().identify(case, sessions)
        for s in ranking.scores:
            assert -1.0 <= s.trend <= 1.0
            assert -1.0 <= s.scale <= 1.0
            assert -1.0 <= s.scale_trend <= 1.0

    def test_driver_has_high_trend(self):
        case, sessions = synthetic_case_and_sessions()
        ranking = HsqlIdentifier().identify(case, sessions)
        driver = next(s for s in ranking.scores if s.sql_id == "DRIVER")
        tiny = next(s for s in ranking.scores if s.sql_id == "TINY")
        assert driver.trend > 0.9
        assert driver.trend > tiny.trend

    def test_scale_minmax_normalisation(self):
        case, sessions = synthetic_case_and_sessions()
        ranking = HsqlIdentifier().identify(case, sessions)
        scales = sorted(s.scale for s in ranking.scores)
        assert scales[0] == pytest.approx(-1.0)
        assert scales[-1] == pytest.approx(1.0)

    def test_impact_of_unknown(self):
        case, sessions = synthetic_case_and_sessions()
        ranking = HsqlIdentifier().identify(case, sessions)
        assert ranking.impact_of("NOPE") == float("-inf")
        assert ranking.impact_of("DRIVER") == ranking.scores[0].impact


class TestWeighting:
    def test_alpha_reflects_largest_template(self):
        case, sessions = synthetic_case_and_sessions()
        ranking = HsqlIdentifier().identify(case, sessions)
        # DRIVER has the largest anomaly-window session total, and it
        # correlates strongly with the instance session.
        assert ranking.alpha > 0.9
        assert ranking.beta == pytest.approx(-ranking.alpha)

    def test_constant_weights_when_disabled(self):
        case, sessions = synthetic_case_and_sessions()
        ranking = HsqlIdentifier(use_weighted_final_score=False).identify(case, sessions)
        assert ranking.alpha == 1.0 and ranking.beta == 1.0

    def test_level_ablations_change_impacts(self):
        case, sessions = synthetic_case_and_sessions()
        full = HsqlIdentifier().identify(case, sessions)
        no_scale = HsqlIdentifier(use_scale=False).identify(case, sessions)
        assert any(
            full.impact_of(s.sql_id) != no_scale.impact_of(s.sql_id)
            for s in full.scores
        )

    def test_empty_sessions(self):
        case, _ = synthetic_case_and_sessions()
        empty = SessionEstimate(
            per_template={},
            total=TimeSeries.zeros(case.duration, start=case.ts),
            selected_buckets=np.zeros(0, dtype=np.int64),
        )
        ranking = HsqlIdentifier().identify(case, empty)
        assert ranking.ranked_ids == []


class TestMatrixScores:
    def test_matrix_scores_match_per_template_correlations(self):
        # The level scores are computed for all templates as one matrix;
        # each must match the per-template Pearson it replaces, including
        # constant and all-zero templates and seconds with no session.
        case, sessions = synthetic_case_and_sessions()
        n = case.duration
        session = case.active_session.values
        session[:20] = 0.0
        rng = np.random.default_rng(5)
        per_template = dict(sessions.per_template)
        per_template["NOISE"] = TimeSeries(rng.normal(4.0, 1.0, n), start=0)
        per_template["CONST"] = TimeSeries(np.full(n, 2.5), start=0)
        per_template["ZERO"] = TimeSeries(np.zeros(n), start=0)
        sessions = SessionEstimate(
            per_template=per_template,
            total=sessions.total,
            selected_buckets=np.zeros(0, dtype=np.int64),
        )
        ranking = HsqlIdentifier().identify(case, sessions)

        weights = sigmoid_anomaly_weights(
            case.ts, case.te, case.anomaly_start, case.anomaly_end, 30.0
        )
        safe = np.where(session == 0.0, np.nan, session)
        for score in ranking.scores:
            values = per_template[score.sql_id].values
            share = np.nan_to_num(values / safe, nan=0.0)
            assert score.trend == pytest.approx(
                weighted_pearson(values, session, weights), rel=0, abs=1e-12
            )
            assert score.scale_trend == pytest.approx(pearson(share, session), rel=0, abs=1e-12)
        by_id = {s.sql_id: s for s in ranking.scores}
        assert by_id["CONST"].trend == 0.0 and by_id["ZERO"].trend == 0.0
        assert by_id["ZERO"].scale_trend == 0.0


class TestOnSimulatedCase:
    def test_hsql_truth_found_top1(self, poor_sql_case):
        from repro.core import PinSQLConfig

        cfg = PinSQLConfig()
        estimator = SessionEstimator(cfg.session_estimation, cfg.session_buckets)
        case = poor_sql_case.case
        sessions = estimator.estimate(case.logs, case.sql_ids, case.active_session)
        ranking = HsqlIdentifier().identify(case, sessions)
        assert ranking.ranked_ids[0] in poor_sql_case.h_sqls
