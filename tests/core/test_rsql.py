"""Tests for R-SQL identification (paper Section VI)."""

import numpy as np

from repro.collection import LogStore, TemplateMetricStore
from repro.core import PinSQLConfig, RsqlIdentifier, SessionEstimator
from repro.core.case import AnomalyCase
from repro.core.hsql import HsqlRanking, HsqlScores
from repro.core.session_estimation import SessionEstimate
from repro.dbsim.monitor import InstanceMetrics
from repro.sqltemplate import TemplateCatalog
from repro.timeseries import TimeSeries


def build_case(exec_series: dict, session, as_, ae, history=None, metrics_extra=None):
    """Construct a minimal AnomalyCase from raw #execution arrays."""
    n = len(session)
    metrics = {"active_session": TimeSeries(np.asarray(session, float), start=0, name="active_session")}
    for name, values in (metrics_extra or {}).items():
        metrics[name] = TimeSeries(np.asarray(values, float), start=0, name=name)
    store = TemplateMetricStore.from_series(0, n, {
        sid: {"#execution": values, "total_tres": np.asarray(values, float) * 5.0}
        for sid, values in exec_series.items()
    })
    return AnomalyCase(
        metrics=InstanceMetrics(metrics),
        templates=store,
        logs=LogStore(),
        catalog=TemplateCatalog(),
        anomaly_start=as_,
        anomaly_end=ae,
        history=history or {},
    )


def sessions_for(case, values: dict):
    matrix = np.array([np.asarray(v, float) for v in values.values()])
    total = matrix.sum(axis=0)
    return SessionEstimate(
        sql_ids=list(values),
        values=matrix,
        total=TimeSeries(total, start=0),
        selected_buckets=np.zeros(0, dtype=np.int64),
    )


def hsql_ranking(impacts: dict) -> HsqlRanking:
    scores = [
        HsqlScores(sid, trend=0.0, scale=0.0, scale_trend=0.0, impact=v)
        for sid, v in impacts.items()
    ]
    scores.sort(key=lambda s: s.impact, reverse=True)
    return HsqlRanking(scores=scores, alpha=1.0, beta=-1.0)


class TestClustering:
    def _correlated_case(self):
        rng = np.random.default_rng(0)
        latent_a = 10 + np.cumsum(rng.normal(0, 0.3, 600))
        latent_a -= latent_a.min() - 1
        latent_b = 10 + np.cumsum(rng.normal(0, 0.3, 600))
        latent_b -= latent_b.min() - 1
        session = np.full(600, 5.0)
        session[400:] += 50
        return build_case(
            {
                "A1": latent_a + rng.normal(0, 0.1, 600),
                "A2": 2 * latent_a + rng.normal(0, 0.1, 600),
                "B1": latent_b + rng.normal(0, 0.1, 600),
                "B2": 3 * latent_b + rng.normal(0, 0.1, 600),
            },
            session, 400, 600,
        )

    def test_same_business_clusters_together(self):
        case = self._correlated_case()
        ident = RsqlIdentifier(clustering_interval_s=1, use_metric_temp_nodes=False)
        clusters = ident.cluster_templates(case)
        groups = [set(c.sql_ids) for c in clusters]
        assert {"A1", "A2"} in groups
        assert {"B1", "B2"} in groups

    def test_metric_temp_nodes_bridge(self):
        # A template correlated only with the session metric joins a
        # cluster through the temporary node.
        n = 600
        session = np.full(n, 5.0)
        session[400:] += 50
        job = np.zeros(n)
        job[400:] = 10.0
        other = np.zeros(n)
        other[400:] = 7.0
        case = build_case({"JOB": job, "OTHER": other}, session, 400, 600)
        with_nodes = RsqlIdentifier(clustering_interval_s=1, use_metric_temp_nodes=True)
        clusters = with_nodes.cluster_templates(case)
        merged = next(c for c in clusters if "JOB" in c.sql_ids)
        assert "OTHER" in merged.sql_ids  # both correlate with the session node

    def test_temp_nodes_filtered_from_results(self):
        case = self._correlated_case()
        clusters = RsqlIdentifier(clustering_interval_s=1).cluster_templates(case)
        for c in clusters:
            assert all(not sid.startswith("__metric__") for sid in c.sql_ids)

    def test_constant_series_isolated(self):
        n = 600
        session = np.full(n, 5.0)
        session[400:] += 50
        case = build_case(
            {"FLAT": np.full(n, 3.0), "VAR": session.copy()}, session, 400, 600
        )
        clusters = RsqlIdentifier(clustering_interval_s=1).cluster_templates(case)
        flat_cluster = next(c for c in clusters if "FLAT" in c.sql_ids)
        assert flat_cluster.sql_ids == ["FLAT"]


class TestClusterRankingAndSelection:
    def _case(self):
        n = 600
        session = np.full(n, 5.0)
        session[400:] += 50
        execs = {
            "H1": np.full(n, 20.0),
            "R1": np.concatenate([np.zeros(400), np.full(200, 10.0)]),
        }
        return build_case(execs, session, 400, 600)

    def test_rank_by_impact(self):
        case = self._case()
        ident = RsqlIdentifier(clustering_interval_s=1)
        clusters = [
            type(ident).cluster_templates.__annotations__ and c
            for c in ident.cluster_templates(case)
        ]
        ranking = hsql_ranking({"H1": 2.0, "R1": -0.5})
        ranked = ident.rank_clusters(case, ident.cluster_templates(case), ranking)
        assert "H1" in ranked[0].sql_ids

    def test_rank_by_top_rt_when_disabled(self):
        case = self._case()
        ident = RsqlIdentifier(clustering_interval_s=1, use_direct_cause_ranking=False)
        ranking = hsql_ranking({"H1": -5.0, "R1": -5.0})
        ranked = ident.rank_clusters(case, ident.cluster_templates(case), ranking)
        # H1 has far larger total_tres in the window.
        assert "H1" in ranked[0].sql_ids

    def test_cumulative_threshold_extends_selection(self):
        # Session = H1's step + R1's ramp: cluster 1 (H1) alone cannot
        # reach the cumulative correlation threshold, so the selection
        # must continue into R1's cluster.
        n = 600
        h1_sess = np.concatenate([np.full(400, 4.0), np.full(200, 30.0)])
        r1_sess = np.concatenate([np.full(400, 1.0), np.linspace(1, 41, 200)])
        session = h1_sess + r1_sess
        case = build_case(
            {
                "H1": np.full(n, 20.0),
                "R1": np.concatenate([np.zeros(400), np.full(200, 10.0)]),
            },
            session, 400, 600,
        )
        sessions = sessions_for(case, {"H1": h1_sess, "R1": r1_sess})
        ident = RsqlIdentifier(clustering_interval_s=1, cumulative_threshold=0.999,
                               use_metric_temp_nodes=False)
        clusters = ident.rank_clusters(
            case, ident.cluster_templates(case), hsql_ranking({"H1": 2.0, "R1": 0.0})
        )
        selected = ident.select_clusters(case, clusters, sessions)
        assert "R1" in selected  # threshold not reached by cluster 1 alone

    def test_top1_only_when_cumulative_disabled(self):
        case = self._case()
        sessions = sessions_for(
            case,
            {"H1": np.full(600, 4.0), "R1": np.full(600, 1.0)},
        )
        ident = RsqlIdentifier(clustering_interval_s=1, use_cumulative_threshold=False,
                               use_metric_temp_nodes=False)
        clusters = ident.rank_clusters(
            case, ident.cluster_templates(case), hsql_ranking({"H1": 2.0, "R1": 0.0})
        )
        selected = ident.select_clusters(case, clusters, sessions)
        assert set(selected) <= set(clusters[0].sql_ids)

    def test_empty_clusters(self):
        case = self._case()
        ident = RsqlIdentifier()
        assert ident.select_clusters(case, [], sessions_for(case, {"H1": np.zeros(600)})) == []


class TestHistoryVerification:
    def _case_with_history(self, history_anomalous: bool):
        n = 600
        session = np.full(n, 5.0)
        session[400:] += 50
        surge = np.concatenate([np.full(400, 10.0), np.full(200, 60.0)])
        flat = np.full(n, 10.0)
        history_values = np.full(n // 60, 600.0)
        if history_anomalous:
            history_values[400 // 60 :] = 3600.0
        history = {
            "SURGE": {1: TimeSeries(history_values, start=0, interval=60)},
        }
        case = build_case({"SURGE": surge, "FLAT": flat}, session, 400, 600, history=history)
        return case

    def test_surge_without_history_anomaly_passes(self):
        case = self._case_with_history(history_anomalous=False)
        ident = RsqlIdentifier(clustering_interval_s=60, history_days=(1,))
        assert "SURGE" in ident.verify_history(case, ["SURGE", "FLAT"])

    def test_flat_template_fails_rule_one(self):
        case = self._case_with_history(history_anomalous=False)
        ident = RsqlIdentifier(clustering_interval_s=60, history_days=(1,))
        assert "FLAT" not in ident.verify_history(case, ["SURGE", "FLAT"])

    def test_recurring_surge_fails_rule_two(self):
        case = self._case_with_history(history_anomalous=True)
        ident = RsqlIdentifier(clustering_interval_s=60, history_days=(1,))
        assert "SURGE" not in ident.verify_history(case, ["SURGE"])

    def test_missing_history_treated_as_new_sql(self):
        case = self._case_with_history(history_anomalous=False)
        ident = RsqlIdentifier(clustering_interval_s=60, history_days=(1, 3, 7))
        # SURGE only has day-1 history; days 3 and 7 are missing → fine.
        assert "SURGE" in ident.verify_history(case, ["SURGE"])

    def test_disabled_verification_passes_everything(self):
        case = self._case_with_history(history_anomalous=True)
        ident = RsqlIdentifier(use_history_verification=False)
        assert ident.verify_history(case, ["SURGE", "FLAT"]) == ["SURGE", "FLAT"]


class TestSharedResample:
    def test_identify_resamples_executions_once(self, monkeypatch):
        # Clustering and history verification share one resample of
        # #execution, even when verification widens to every template.
        case = TestHistoryVerification()._case_with_history(history_anomalous=True)
        calls = []
        original = TemplateMetricStore.resample

        def counting(self, factor, metrics=None):
            calls.append((factor, metrics))
            return original(self, factor, metrics)

        monkeypatch.setattr(TemplateMetricStore, "resample", counting)
        ident = RsqlIdentifier(clustering_interval_s=60, history_days=(1,))
        sessions = sessions_for(case, {"SURGE": case.active_session.values, "FLAT": np.ones(600)})
        result = ident.identify(case, hsql_ranking({"SURGE": 1.0, "FLAT": 0.5}), sessions)
        assert result.widened
        assert calls == [(60, ("#execution",))]

    def test_stages_give_the_same_answer_with_shared_executions(self):
        case = TestHistoryVerification()._case_with_history(history_anomalous=False)
        ident = RsqlIdentifier(clustering_interval_s=60, history_days=(1,))
        executions = ident.executions(case)
        assert executions.interval == 60
        own = sorted(sorted(c.sql_ids) for c in ident.cluster_templates(case))
        shared = sorted(sorted(c.sql_ids) for c in ident.cluster_templates(case, executions))
        assert own == shared
        assert ident.verify_history(case, ["SURGE", "FLAT"]) == ident.verify_history(
            case, ["SURGE", "FLAT"], executions
        )


class TestFinalRanking:
    def test_rank_by_execution_session_correlation(self):
        n = 600
        session = np.full(n, 5.0)
        session[400:] += 50
        aligned = np.concatenate([np.zeros(400), np.full(200, 10.0)])
        rng = np.random.default_rng(1)
        noise = 10 + rng.normal(0, 1, n)
        case = build_case({"ALIGNED": aligned, "NOISY": noise}, session, 400, 600)
        ranked = RsqlIdentifier().rank_candidates(case, ["NOISY", "ALIGNED"])
        assert ranked[0][0] == "ALIGNED"
        assert ranked[0][1] > ranked[1][1]

    def test_empty_candidates(self):
        n = 600
        session = np.full(n, 5.0)
        session[400:] += 50
        case = build_case({"A": np.ones(n)}, session, 400, 600)
        assert RsqlIdentifier().rank_candidates(case, []) == []


class TestEndToEndRsql:
    def test_identify_on_simulated_case(self, row_lock_case):
        cfg = PinSQLConfig()
        case = row_lock_case.case
        estimator = SessionEstimator(cfg.session_estimation, cfg.session_buckets)
        sessions = estimator.estimate(case.logs, case.sql_ids, case.active_session)
        from repro.core import HsqlIdentifier

        hsql = HsqlIdentifier().identify(case, sessions)
        result = RsqlIdentifier().identify(case, hsql, sessions)
        assert result.ranked_ids  # non-empty ranking
        assert set(result.ranked_ids) & set(case.sql_ids) == set(result.ranked_ids)
