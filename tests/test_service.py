"""Tests for the autonomous diagnosis service (one registered instance)."""

import numpy as np
import pytest

from repro.collection import Broker, LogStore, MetricsCollector, QueryLogCollector
from repro.dbsim import DatabaseInstance, QueryLog, SecondBatch
from repro.dbsim.monitor import InstanceMetrics
from repro.fleet import (
    Diagnosis,
    FleetDiagnosisService,
    InstanceDiagnosisEngine,
    ServiceConfig,
)
from repro.telemetry import MetricsRegistry
from repro.timeseries import TimeSeries
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)

#: The one monitored instance of these tests.
INSTANCE = "db-01"


def single_instance_service(broker, config=None, notify=None, registry=None, **engine_kwargs):
    """A fleet service with :data:`INSTANCE` registered: (service, engine)."""
    service = FleetDiagnosisService(broker, registry=registry, notify=notify)
    engine = service.register_instance(INSTANCE, config=config, **engine_kwargs)
    return service, engine


@pytest.fixture(scope="module")
def anomaly_stream():
    """A broker loaded with a simulated run containing a row-lock anomaly."""
    duration, onset = 900, 600
    rng = np.random.default_rng(55)
    population = build_population(duration, rng, n_businesses=5)
    truth = inject_anomaly(
        population, rng, AnomalyCategory.ROW_LOCK, onset, duration,
        target_rate=(25.0, 35.0), lock_hold_ms=(300.0, 400.0),
    )
    instance = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=4)
    result = instance.run(WorkloadGenerator(population), duration=duration)
    broker = Broker()
    QueryLogCollector(broker, instance_id=INSTANCE).collect(result.query_log)
    MetricsCollector(broker, instance_id=INSTANCE).collect(result.metrics)
    return broker, population, truth, onset


class TestServiceLoop:
    def test_detects_and_diagnoses(self, anomaly_stream):
        broker, population, truth, onset = anomaly_stream
        service, engine = single_instance_service(
            broker, ServiceConfig(delta_start_s=500, detector_window_s=900)
        )
        # Teach the engine the statement catalog (production collectors
        # ship statements; our simulated topic carries only metrics).
        for spec in population.specs.values():
            engine.register_statement(spec.template.replace("?", "1"))
        diagnoses = service.run_until_drained()
        assert diagnoses, "the anomaly must be diagnosed"
        diagnosis = diagnoses[0]
        # The detected window must cover the injected anomaly (nearby
        # phenomena may merge in, extending the window's start earlier).
        assert diagnosis.anomaly.start < onset + 120
        assert diagnosis.anomaly.end > onset + 60
        assert diagnosis.result.rsql_ids
        assert diagnosis.result.rsql_ids[0] in truth.r_sql_ids
        assert "PinSQL diagnosis report" in diagnosis.report.text

    def test_notification_hook_invoked(self, anomaly_stream):
        broker, population, truth, onset = anomaly_stream
        # Fresh consumers: new service instance re-reads the topics.
        received = []
        service, _ = single_instance_service(
            broker,
            ServiceConfig(delta_start_s=500, detector_window_s=900),
            notify=received.append,
        )
        service.run_until_drained()
        assert received
        assert isinstance(received[0], Diagnosis)

    def test_register_catalog_merges(self, anomaly_stream):
        broker, population, _, _ = anomaly_stream
        from repro.sqltemplate import TemplateCatalog

        external = TemplateCatalog()
        for spec in population.specs.values():
            external.register_template(spec.sql_id, spec.template, spec.kind, spec.tables)
        _, engine = single_instance_service(broker, catalog=external)
        some_id = next(iter(population.specs))
        assert some_id in engine.catalog

    def test_quiet_stream_produces_no_diagnoses(self):
        duration = 400
        rng = np.random.default_rng(66)
        population = build_population(duration, rng, n_businesses=4)
        instance = DatabaseInstance(schema=population.schema, cpu_cores=16, seed=3)
        result = instance.run(WorkloadGenerator(population), duration=duration)
        broker = Broker()
        QueryLogCollector(broker, instance_id=INSTANCE).collect(result.query_log)
        MetricsCollector(broker, instance_id=INSTANCE).collect(result.metrics)
        service, _ = single_instance_service(broker, ServiceConfig(detector_window_s=400))
        assert service.run_until_drained() == []

    def test_min_duration_filter(self, anomaly_stream):
        broker, *_ = anomaly_stream
        service, _ = single_instance_service(
            broker,
            ServiceConfig(
                delta_start_s=500,
                detector_window_s=900,
                min_anomaly_duration_s=10_000,  # unreachably long
            ),
        )
        assert service.run_until_drained() == []

    def test_engine_rejects_empty_instance_id(self):
        with pytest.raises(ValueError, match="instance_id"):
            InstanceDiagnosisEngine(Broker(), "")


class TestServiceExtras:
    def test_history_provider_consulted(self, anomaly_stream):
        broker, population, truth, onset = anomaly_stream
        queried = []

        def provider(sql_id, days, ts, te):
            queried.append((sql_id, days))
            return None

        service, _ = single_instance_service(
            broker,
            ServiceConfig(delta_start_s=500, detector_window_s=900),
            history_provider=provider,
        )
        diagnoses = service.run_until_drained()
        assert diagnoses
        assert queried  # the provider was asked for history
        days_asked = {d for _, d in queried}
        assert days_asked <= {1, 3, 7}

    def test_verdict_attached(self, anomaly_stream):
        broker, *_ = anomaly_stream
        service, _ = single_instance_service(
            broker, ServiceConfig(delta_start_s=500, detector_window_s=900)
        )
        diagnoses = service.run_until_drained()
        assert diagnoses
        verdict = diagnoses[0].verdict
        assert verdict is not None
        assert verdict.category in AnomalyCategory
        assert "qps" in verdict.evidence

    def test_idle_guard_breaks_on_non_advancing_broker(self, anomaly_stream):
        class StuckBroker(Broker):
            """Reports lag but never hands out messages."""

            def read(self, topic, offset, max_messages):
                return []

        broker, population, *_ = anomaly_stream
        stuck = StuckBroker()
        # Republish the metric stream so lag is positive from the start.
        topic = f"performance_metrics.{INSTANCE}"
        for message in broker.read(topic, 0, 10):
            stuck.publish(topic, message.key, message.value)
        registry = MetricsRegistry()
        service, engine = single_instance_service(stuck, registry=registry)
        assert service.run_until_drained(max_idle_iterations=3) == []
        assert engine.detector.consumer.lag > 0  # still stuck, but we returned
        assert registry.get("fleet_drain_stalled_total").value == 1

    def test_auto_execution_with_instance(self, anomaly_stream):
        from repro.core import RepairConfig, RepairRule

        broker, population, truth, onset = anomaly_stream
        config = ServiceConfig(
            delta_start_s=500,
            detector_window_s=900,
            repair=RepairConfig(
                rules=(RepairRule(("*",), "sql_throttle"),),
                auto_execute=True,
            ),
        )
        # A live instance handle for the service to act on.
        live = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=9)
        live.start(WorkloadGenerator(population))
        service, _ = single_instance_service(broker, config, instance=live)
        diagnoses = service.run_until_drained()
        assert diagnoses
        assert diagnoses[0].executed
        assert diagnoses[0].plan.executed
        live.finish()


class TestServiceTelemetry:
    """The service self-reports through an injected registry."""

    @pytest.fixture()
    def diagnosed(self, anomaly_stream):
        broker, population, truth, onset = anomaly_stream
        registry = MetricsRegistry()
        service, engine = single_instance_service(
            broker,
            ServiceConfig(delta_start_s=500, detector_window_s=900),
            registry=registry,
        )
        for spec in population.specs.values():
            engine.register_statement(spec.template.replace("?", "1"))
        diagnoses = service.run_until_drained()
        return engine, registry, diagnoses

    def test_step_increments_expected_counters(self, diagnosed):
        engine, registry, diagnoses = diagnosed
        assert diagnoses
        labels = {"instance": INSTANCE}
        assert registry.get("service_steps_total", **labels).value >= 1
        assert registry.get("service_diagnoses_total", **labels).value == len(diagnoses)
        assert registry.get("fleet_diagnoses_total").value == len(diagnoses)
        assert registry.get("service_querylog_messages_total", **labels).value > 0
        assert registry.get("logstore_queries_ingested_total", **labels).value > 0
        assert registry.get("detector_points_consumed_total", **labels).value > 0
        assert registry.get("detector_evaluations_total", **labels).value > 0
        assert registry.get(
            "detector_events_total", kind="new", **labels
        ).value >= len(diagnoses)

    def test_pipeline_spans_recorded_per_stage(self, diagnosed):
        engine, registry, diagnoses = diagnosed
        for stage in (
            "pinsql.analyze",
            "session_estimation",
            "hsql_ranking",
            "clustering_and_filtering",
            "history_verification",
            "service.diagnose",
        ):
            hist = registry.get(
                "span_duration_seconds", span=stage, instance=INSTANCE
            )
            assert hist is not None, stage
            assert hist.count >= len(diagnoses)

    def test_broker_lag_gauges_drained_to_zero(self, diagnosed):
        engine, registry, _ = diagnosed
        lag = registry.get(
            "broker_consumer_lag",
            topic=engine.metric_topic,
            consumer=engine.detector.consumer.name,
        )
        # The engine's consumers live on the shared module fixture broker,
        # whose registry is the global one; the service registry sees lag
        # gauges only when the broker was built with it.  Either way the
        # consumer itself must be drained.
        assert engine.detector.consumer.lag == 0
        if lag is not None:
            assert lag.value == 0

    def test_metric_sample_mirror_is_bounded_and_public(self, diagnosed):
        engine, registry, _ = diagnosed
        # The detector's buffers are read through its public accessor …
        buffers = dict(engine.detector.iter_buffer_samples())
        assert "active_session" in buffers
        with pytest.raises(TypeError):
            buffers["active_session"][0] = 1.0  # read-only view
        # … bounded by window_s + delta_start_s, and counted by the gauge.
        now = engine.detector.stream_time
        bound = engine.detector.window_s + engine.config.delta_start_s
        for samples in buffers.values():
            assert all(t >= now - bound for t in samples)
        assert registry.get(
            "service_metric_samples_resident", instance=INSTANCE
        ).value == sum(len(s) for s in buffers.values())


class TestMetricRetention:
    def test_evidence_retention_does_not_depend_on_poll_batching(self):
        """W + δs of raw samples survive however many seconds one poll
        carries: a backlog drained in one step keeps the context before
        the detector window, exactly as a live, stepwise drain does."""
        duration, chunk = 400, 30
        config = ServiceConfig(detector_window_s=100, delta_start_s=60)
        values = 10.0 + np.random.default_rng(3).normal(size=duration)
        source = Broker()
        topic = f"performance_metrics.{INSTANCE}"
        MetricsCollector(source, instance_id=INSTANCE).collect(
            InstanceMetrics(
                {"active_session": TimeSeries(values, start=0, name="active_session")}
            )
        )
        blocks = [m.value for m in source.read(topic, 0, source.size(topic))]
        assert len(blocks) == duration

        def engine_fed(step_messages):
            registry = MetricsRegistry()
            broker = Broker(registry=registry)
            engine = InstanceDiagnosisEngine(
                broker, INSTANCE, config=config, registry=registry
            )
            for t0 in range(0, duration, step_messages):
                for block in blocks[t0 : t0 + step_messages]:
                    broker.publish_block(topic, block)
                engine.step()
            return engine, registry

        backlog, backlog_registry = engine_fed(duration)
        stepwise, _ = engine_fed(chunk)
        now = duration - 1
        assert backlog.detector.stream_time == stepwise.detector.stream_time == now
        window = backlog.detector.window_snapshot(now - 160, now + 1)
        assert window == stepwise.detector.window_snapshot(now - 160, now + 1)
        samples = window["active_session"]
        assert samples[0][0] == now - 160
        assert len(samples) == 161
        # Nothing older than W + δs is kept, and the telemetry says so.
        assert backlog.detector.window_snapshot(0, now - 160) == {}
        labels = {"instance": INSTANCE}
        assert backlog_registry.get("service_metric_samples_resident", **labels).value == 161
        evicted = backlog_registry.get("service_metric_samples_evicted_total", **labels)
        assert evicted.value == duration - 161


class TestLogRetention:
    def test_step_expires_rows_older_than_retention(self):
        duration, chunk = 360, 30
        log = QueryLog()
        for s in range(duration):
            log.append(
                SecondBatch(
                    "q1",
                    np.array([s * 1000 + 10, s * 1000 + 900], dtype=np.int64),
                    np.array([5.0, 6.0]),
                    np.array([40.0, 41.0]),
                )
            )
        metrics = InstanceMetrics(
            {"cpu": TimeSeries(np.full(duration, 0.2), start=0, name="cpu")}
        )
        source = Broker()
        QueryLogCollector(source, instance_id="db-r").collect(log)
        MetricsCollector(source, instance_id="db-r").collect(metrics)
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        store = LogStore(retention_s=60, registry=registry, instance_id="db-r")
        engine = InstanceDiagnosisEngine(
            broker, instance_id="db-r", registry=registry, logstore=store
        )
        # One block per second on each topic; publish them a chunk at a time.
        feeds = [
            (topic, source.read(topic, 0, source.size(topic)))
            for topic in ("query_logs.db-r", "performance_metrics.db-r")
        ]
        for t0 in range(0, duration, chunk):
            for topic, messages in feeds:
                for message in messages[t0 : t0 + chunk]:
                    broker.publish_block(topic, message.value)
            engine.step()
            now = engine.detector.stream_time
            cutoff_ms = (now - 60) * 1000
            assert all(
                store.queries_in_window(sql_id, 0, 1 << 40).arrive_ms.min() >= cutoff_ms
                for sql_id in store.sql_ids
            )
        assert engine.detector.stream_time == duration - 1
        evicted = registry.get("logstore_evicted_queries_total", instance="db-r")
        assert evicted.value > 0
        assert store.total_queries() + evicted.value == 2 * duration
