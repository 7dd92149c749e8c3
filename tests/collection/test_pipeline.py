"""Tests for collectors, aggregation and the log store."""

import numpy as np
import pytest

from repro.collection import (
    Broker,
    LogStore,
    MetricsCollector,
    QueryLogCollector,
    TEMPLATE_METRICS,
    TemplateMetricStore,
    aggregate_logstore,
    aggregate_query_log,
)
from repro.dbsim import QueryLog, SecondBatch
from repro.fleet import InstanceDiagnosisEngine
from repro.telemetry import MetricsRegistry
from repro.timeseries import TimeSeries


def make_log():
    """Two templates over seconds 10..12."""
    log = QueryLog()
    log.append(
        SecondBatch(
            "A",
            np.array([10_000, 10_500, 11_200], dtype=np.int64),
            np.array([10.0, 20.0, 30.0]),
            np.array([100.0, 200.0, 300.0]),
        )
    )
    log.append(
        SecondBatch(
            "B",
            np.array([12_100], dtype=np.int64),
            np.array([5.0]),
            np.array([50.0]),
        )
    )
    return log


class TestBatchAggregation:
    def test_execution_counts(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        assert list(store.executions("A").values) == [2.0, 1.0, 0.0]
        assert list(store.executions("B").values) == [0.0, 0.0, 1.0]

    def test_total_and_avg_tres(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        assert list(store.get("A", "total_tres").values) == [30.0, 30.0, 0.0]
        assert list(store.get("A", "avg_tres").values) == [15.0, 30.0, 0.0]

    def test_examined_rows(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        assert list(store.get("A", "total_examined_rows").values) == [300.0, 300.0, 0.0]

    def test_out_of_window_records_dropped(self):
        store = aggregate_query_log(make_log(), start=11, end=12)
        assert list(store.executions("A").values) == [1.0]
        assert list(store.executions("B").values) == [0.0]

    def test_unknown_template_returns_zeros(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        assert store.get("ZZZ", "#execution").total() == 0.0

    def test_all_metrics_present(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        for metric in TEMPLATE_METRICS:
            assert len(store.get("A", metric)) == 3

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            aggregate_query_log(make_log(), start=13, end=10)


class TestStoreOperations:
    def test_put_length_checked(self):
        # Every row must span the store's window, whichever way it is built.
        with pytest.raises(ValueError):
            TemplateMetricStore.from_series(0, 10, {"A": {"#execution": np.zeros(5)}})
        with pytest.raises(ValueError):
            TemplateMetricStore(0, 10, sql_ids=["A"], matrices={"#execution": np.zeros((1, 5))})

    def test_resample_to_minutes(self):
        store = TemplateMetricStore.from_series(0, 120, {"A": {"#execution": np.ones(120)}})
        minute = store.resample(60)
        assert minute.interval == 60
        assert list(minute.executions("A").values) == [60.0, 60.0]

    def test_resample_selected_metrics(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        full = store.resample(3)
        executions = store.resample(3, metrics=("#execution",))
        assert executions.sql_ids == full.sql_ids
        for sql_id in store.sql_ids:
            np.testing.assert_array_equal(
                executions.executions(sql_id).values, full.executions(sql_id).values
            )
        assert executions.total_response_time("A").total() == 0.0
        assert full.total_response_time("A").total() > 0.0

    def test_absent_id_gives_zeros_on_the_store_axis(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        minute = TemplateMetricStore.from_series(0, 180, {"A": {}}, interval=60)
        for s in (store, minute):
            for metric in TEMPLATE_METRICS:
                ghost = s.get("ZZZ", metric)
                assert (len(ghost), ghost.start, ghost.interval) == (s.length, s.start, s.interval)
                assert ghost.name == metric
                assert not ghost.values.any()

    def test_rows_are_views_of_the_metric_matrices(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        assert store.sql_ids == ["A", "B"]
        for metric in TEMPLATE_METRICS:
            assert store.matrix(metric).shape == (2, 3)
            assert np.shares_memory(store.get("B", metric).values, store.matrix(metric))
        np.testing.assert_array_equal(store.matrix("#execution"), [[2, 1, 0], [0, 0, 1]])

    def test_logstore_leaves_out_templates_idle_in_the_window(self):
        logstore = LogStore()
        logstore.ingest_query_log(make_log())
        assert aggregate_logstore(logstore, start=10, end=12).sql_ids == ["A"]
        assert aggregate_query_log(make_log(), start=10, end=12).sql_ids == ["A", "B"]

    def test_membership(self):
        store = aggregate_query_log(make_log(), start=10, end=13)
        assert "A" in store and "ZZZ" not in store
        assert len(store) == 2


class TestStreamingPath:
    def test_stream_matches_batch(self):
        log = make_log()
        broker = Broker()
        collector = QueryLogCollector(broker, instance_id="db-a")
        n_blocks = collector.collect(log)
        assert n_blocks == 3  # one block per second: 10 and 11 (A), 12 (B)

        # The streaming path: the engine drains the blocks into its
        # LogStore, and the case window is aggregated from there.
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=MetricsRegistry())
        engine.step()
        assert engine.lag == 0
        streamed = aggregate_logstore(engine.logstore, start=10, end=13)
        batch = aggregate_query_log(log, start=10, end=13)
        for sql_id in ("A", "B"):
            for metric in TEMPLATE_METRICS:
                assert np.allclose(
                    streamed.get(sql_id, metric).values,
                    batch.get(sql_id, metric).values,
                ), (sql_id, metric)

    def test_incremental_polling(self):
        """Blocks drained over several engine steps aggregate as one batch."""
        log = make_log()
        source = Broker()
        QueryLogCollector(source, instance_id="db-a").collect(log)
        blocks = [m.value for m in source.read("query_logs.db-a", 0, 10)]
        broker = Broker()
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=MetricsRegistry())
        for block in blocks:
            broker.publish_block("query_logs.db-a", block)
            engine.step()
            assert engine.lag == 0
        assert engine.consumer_offsets()[0] == len(blocks) == 3
        streamed = aggregate_logstore(engine.logstore, start=10, end=13)
        batch = aggregate_query_log(log, start=10, end=13)
        for sql_id in ("A", "B"):
            np.testing.assert_array_equal(
                streamed.executions(sql_id).values, batch.executions(sql_id).values
            )

    def test_metrics_collector(self):
        from repro.dbsim.monitor import InstanceMetrics

        metrics = InstanceMetrics(
            {"cpu_usage": TimeSeries(np.array([1.0, 2.0]), start=100, name="cpu_usage")}
        )
        broker = Broker()
        sent = MetricsCollector(broker).collect(metrics)
        assert sent == 2
        messages = broker.consumer("performance_metrics").poll()
        block = messages[0].value
        assert block.metrics == ("cpu_usage",)
        assert block.data.tolist() == [(0, 100, 1.0)]


class TestLogStore:
    def test_ingest_and_window_query(self):
        store = LogStore()
        store.ingest_query_log(make_log())
        tq = store.queries_in_window("A", 10, 11)
        assert len(tq) == 2
        assert store.total_queries() == 4

    def test_window_excludes_outside(self):
        store = LogStore()
        store.ingest_query_log(make_log())
        assert len(store.queries_in_window("A", 12, 20)) == 0
        assert len(store.queries_in_window("MISSING", 0, 100)) == 0

    def test_expiry(self):
        store = LogStore(retention_s=100)
        store.ingest_query_log(make_log())
        dropped = store.expire(now_s=111)  # cutoff at 11 s
        assert dropped == 2  # A's two queries at second 10
        assert store.total_queries() == 2

    def test_expiry_removes_empty_templates(self):
        store = LogStore(retention_s=1)
        store.ingest_query_log(make_log())
        store.expire(now_s=1000)
        assert store.sql_ids == []

    def test_invalid_retention(self):
        with pytest.raises(ValueError):
            LogStore(retention_s=0)
