"""End-to-end integration: simulate → collect → detect → diagnose → repair.

These tests run the whole system the way the examples do, asserting the
contract between stages rather than any single module's behaviour.
"""

import numpy as np
import pytest

from repro.collection import (
    Broker,
    LogStore,
    QueryLogCollector,
    aggregate_logstore,
    aggregate_query_log,
)
from repro.core import (
    AnomalyCase,
    DEFAULT_REPAIR_CONFIG,
    PinSQL,
    RepairConfig,
    RepairEngine,
    RepairRule,
)
from repro.dbsim import DatabaseInstance
from repro.detection import BasicPerception, CaseBuilder, PhenomenonPerception
from repro.fleet import InstanceDiagnosisEngine
from repro.sqltemplate import TemplateCatalog
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)


@pytest.fixture(scope="module")
def simulated_run():
    duration, onset = 700, 450
    rng = np.random.default_rng(77)
    population = build_population(duration, rng, n_businesses=5)
    truth = inject_anomaly(
        population, rng, AnomalyCategory.ROW_LOCK, onset, duration,
        target_rate=(35.0, 45.0), lock_hold_ms=(250.0, 350.0),
    )
    instance = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=6)
    result = instance.run(WorkloadGenerator(population), duration=duration)
    return population, truth, result, duration, onset


class TestPipelineContract:
    def test_streaming_equals_batch_aggregation(self, simulated_run):
        _, _, result, duration, _ = simulated_run
        broker = Broker()
        QueryLogCollector(broker, instance_id="db-a").collect(result.query_log)
        engine = InstanceDiagnosisEngine(broker, "db-a")
        engine.step()
        assert engine.lag == 0
        streamed = aggregate_logstore(engine.logstore, 0, duration)
        batch = aggregate_query_log(result.query_log, 0, duration)
        assert set(streamed.sql_ids) == set(batch.sql_ids)
        for sid in batch.sql_ids:
            assert np.allclose(
                streamed.executions(sid).values, batch.executions(sid).values
            )

    def test_detection_finds_injected_window(self, simulated_run):
        _, truth, result, duration, onset = simulated_run
        features = BasicPerception().perceive(result.metrics)
        phenomena = PhenomenonPerception().recognise(features)
        anomalies = CaseBuilder(min_duration_s=30).build(phenomena)
        assert anomalies
        overlapping = [
            a for a in anomalies
            if min(a.end, duration) > onset and a.start < duration
        ]
        assert overlapping
        best = max(overlapping, key=lambda a: a.duration)
        assert abs(best.start - onset) < 120

    def test_diagnosis_finds_injected_root(self, simulated_run):
        population, truth, result, duration, onset = simulated_run
        templates = aggregate_query_log(result.query_log, 0, duration)
        logs = LogStore()
        logs.ingest_query_log(result.query_log)
        catalog = TemplateCatalog()
        for spec in population.specs.values():
            catalog.register_template(spec.sql_id, spec.template, spec.kind, spec.tables)
        case = AnomalyCase(
            metrics=result.metrics, templates=templates, logs=logs,
            catalog=catalog, anomaly_start=onset, anomaly_end=duration,
        )
        analysis = PinSQL().analyze(case)
        assert analysis.rsql_ids
        assert analysis.rsql_ids[0] in truth.r_sql_ids
        # The catalog can explain every ranked template.
        for sql_id in analysis.rsql_ids[:5]:
            assert catalog.get(sql_id) is not None

    def test_estimated_sessions_sum_close_to_observed(self, simulated_run):
        population, _, result, duration, onset = simulated_run
        templates = aggregate_query_log(result.query_log, 0, duration)
        logs = LogStore()
        logs.ingest_query_log(result.query_log)
        case = AnomalyCase(
            metrics=result.metrics, templates=templates, logs=logs,
            catalog=TemplateCatalog(), anomaly_start=onset, anomaly_end=duration,
        )
        analysis = PinSQL().analyze(case)
        observed = case.active_session.values
        estimated = analysis.sessions.total.values
        from repro.timeseries import pearson

        assert pearson(estimated, observed) > 0.9


class TestRepairLoopIntegration:
    def test_throttle_then_optimize_resolves_anomaly(self):
        duration, onset, act_at = 1400, 400, 800
        rng = np.random.default_rng(21)
        population = build_population(duration, rng, n_businesses=5)
        truth = inject_anomaly(
            population, rng, AnomalyCategory.ROW_LOCK, onset, duration
        )
        instance = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=2)
        engine = instance.start(WorkloadGenerator(population))
        engine.run(act_at)

        metrics, _, _ = engine.monitor.finalize(engine.query_log)
        templates = aggregate_query_log(engine.query_log, 0, engine.now)
        logs = LogStore()
        logs.ingest_query_log(engine.query_log)
        case = AnomalyCase(
            metrics=metrics, templates=templates, logs=logs,
            catalog=TemplateCatalog(), anomaly_start=onset, anomaly_end=engine.now,
        )
        analysis = PinSQL().analyze(case)
        config = RepairConfig(
            rules=(
                RepairRule(("*",), "sql_throttle",
                           params=(("factor", 0.0), ("duration_s", duration))),
            ),
            auto_execute=True,
        )
        repair = RepairEngine(config)
        plan = repair.plan(case, analysis, anomaly_types=("active_session_anomaly",))
        executed = repair.execute(plan, instance, now_s=engine.now)
        assert executed
        engine.run(duration - engine.now)
        result = instance.finish()
        session = result.metrics.active_session.values
        during = session[onset + 100 : act_at - 20].mean()
        after = session[act_at + 120 :].mean()
        assert analysis.rsql_ids[0] in truth.r_sql_ids
        assert after < during * 0.5  # killing the R-SQL resolves the anomaly

    def test_default_config_gates_throttling(self, simulated_run):
        population, _, result, duration, onset = simulated_run
        templates = aggregate_query_log(result.query_log, 0, duration)
        logs = LogStore()
        logs.ingest_query_log(result.query_log)
        case = AnomalyCase(
            metrics=result.metrics, templates=templates, logs=logs,
            catalog=TemplateCatalog(), anomaly_start=onset, anomaly_end=duration,
        )
        analysis = PinSQL().analyze(case)
        plan = RepairEngine(DEFAULT_REPAIR_CONFIG).plan(
            case, analysis, anomaly_types=("active_session_anomaly",)
        )
        # Suggested actions exist or not depending on severity, but the
        # default config never auto-executes.
        instance = DatabaseInstance(seed=1)
        instance.start(WorkloadGenerator(population))
        assert RepairEngine(DEFAULT_REPAIR_CONFIG).execute(plan, instance, 0) == []
        instance.finish()
