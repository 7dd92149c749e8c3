"""Tests for payload validation, dead-letter quarantine, and consumer resync."""

import numpy as np
import pytest

from repro.collection import Broker, MetricsCollector
from repro.collection.blocks import (
    METRIC_BLOCK_DTYPE,
    QUERY_BLOCK_DTYPE,
    MetricBlock,
    QueryLogBlock,
    validate_metric_block,
    validate_query_block,
)
from repro.collection.quarantine import dead_letter_topic, quarantine
from repro.dbsim.monitor import InstanceMetrics
from repro.detection import RealtimeAnomalyDetector
from repro.fleet import InstanceDiagnosisEngine
from repro.telemetry import MetricsRegistry
from repro.timeseries import TimeSeries


def good_query_record(second: int = 5) -> dict:
    return {
        "second": second,
        "sql_id": "q-001",
        "arrive_ms": np.array([5000.0, 5100.0]),
        "response_ms": np.array([12.0, 15.0]),
        "examined_rows": np.array([100.0, 120.0]),
    }


def good_metric_record(t: int = 10) -> dict:
    return {"metric": "active_session", "timestamp": t, "value": 3.0}


def dead_letter_reasons(broker: Broker, topic: str) -> list[str]:
    return [m.key for m in broker.read(dead_letter_topic(topic), 0, 100)]


class TestValidateQueryRecord:
    """A query-log record is valid only as a row of a block.

    The rejected shapes below are the per-record dicts (well formed or
    not) of the deleted dict wire format; a consumer must quarantine
    each as ``not_a_block`` without reading a field of it.
    """

    def test_accepts_valid_record(self):
        record = good_query_record()
        rows = np.zeros(2, dtype=QUERY_BLOCK_DTYPE)
        for column in ("arrive_ms", "response_ms", "examined_rows"):
            rows[column] = record[column]
        block = QueryLogBlock(sql_ids=(record["sql_id"],), data=rows)
        assert validate_query_block(block) is None

    @pytest.mark.parametrize(
        "mutate,legacy_reason",
        [
            (lambda r: "not a dict", "not_a_mapping"),
            (lambda r: {k: v for k, v in r.items() if k != "sql_id"},
             "missing_key:sql_id"),
            (lambda r: {**r, "second": "soon"}, "bad_type:second"),
            (lambda r: {**r, "second": -1}, "bad_type:second"),
            (lambda r: {**r, "sql_id": ""}, "bad_type:sql_id"),
            (lambda r: {**r, "response_ms": "fast"}, "bad_type:response_ms"),
            (lambda r: {**r, "arrive_ms": np.array([])}, "bad_shape:arrive_ms"),
            (lambda r: {**r, "response_ms": np.array([1.0, np.nan])},
             "non_finite:response_ms"),
            (lambda r: {**r, "examined_rows": np.array([1.0])},
             "length_mismatch"),
            (lambda r: {**r, "instance": 7}, "bad_type:instance"),
        ],
    )
    def test_rejects_with_reason(self, mutate, legacy_reason):
        record = mutate(good_query_record())
        assert validate_query_block(record) == "not_a_block", legacy_reason
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        broker.publish("query_logs.db-a", "k", record)
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=registry)
        engine.step()
        assert dead_letter_reasons(broker, "query_logs.db-a") == ["not_a_block"]
        assert engine.logstore.total_queries() == 0


class TestValidateMetricRecord:
    """A metric sample is valid only as a row of a block (see above)."""

    def test_accepts_valid_record(self):
        record = good_metric_record()
        rows = np.array([(0, record["timestamp"], record["value"])], dtype=METRIC_BLOCK_DTYPE)
        assert validate_metric_block(MetricBlock(metrics=(record["metric"],), data=rows)) is None

    @pytest.mark.parametrize(
        "mutate,legacy_reason",
        [
            (lambda r: None, "not_a_mapping"),
            (lambda r: {k: v for k, v in r.items() if k != "value"},
             "missing_key:value"),
            (lambda r: {**r, "metric": ""}, "bad_type:metric"),
            (lambda r: {**r, "timestamp": "not-a-timestamp"},
             "bad_type:timestamp"),
            (lambda r: {**r, "timestamp": -5}, "bad_type:timestamp"),
            (lambda r: {**r, "value": float("nan")}, "non_finite:value"),
            (lambda r: {**r, "value": True}, "non_finite:value"),
            (lambda r: {**r, "instance": 3}, "bad_type:instance"),
        ],
    )
    def test_rejects_with_reason(self, mutate, legacy_reason):
        record = mutate(good_metric_record())
        assert validate_metric_block(record) == "not_a_block", legacy_reason
        broker = Broker(registry=MetricsRegistry())
        broker.publish("performance_metrics", "k", record)
        detector = RealtimeAnomalyDetector(broker.consumer("performance_metrics"))
        assert detector.poll() == []
        assert dead_letter_reasons(broker, "performance_metrics") == ["not_a_block"]
        assert detector.stream_time is None


class TestQuarantine:
    def test_publishes_to_dead_letter_and_counts(self):
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        record = {"second": "bad"}
        quarantine(broker, "query_logs.db-00", record, "bad_type:second")
        dl_topic = dead_letter_topic("query_logs.db-00")
        assert dl_topic == "dead_letter.query_logs.db-00"
        (msg,) = broker.read(dl_topic, 0, 10)
        assert msg.value["reason"] == "bad_type:second"
        assert msg.value["record"] is record
        counter = registry.get(
            "collector_quarantined_total",
            topic="query_logs.db-00",
            reason="bad_type:second",
        )
        assert counter.value == 1

    def test_dead_letter_topics_survive_pruning(self):
        broker = Broker(registry=MetricsRegistry())
        quarantine(broker, "query_logs", {"bad": 1}, "not_a_mapping")
        # A live consumer fully drains the source topic, then prunes.
        consumer = broker.consumer("query_logs")
        broker.publish("query_logs", "k", good_query_record())
        consumer.poll()
        broker.prune()
        assert broker.retained("query_logs") == 0
        # No consumer is registered on the dead-letter topic: untouched.
        assert broker.retained(dead_letter_topic("query_logs")) == 1


class TestCollectorQuarantine:
    def test_metrics_collector_quarantines_non_finite_points(self):
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        collector = MetricsCollector(broker, instance_id="db-00")
        metrics = InstanceMetrics(
            series={
                "active_session": TimeSeries(
                    np.array([1.0, np.nan, 2.0]), start=0, name="active_session"
                )
            }
        )
        sent = collector.collect(metrics)
        assert sent == 2
        assert broker.retained(dead_letter_topic(collector.topic)) == 1
        counter = registry.get(
            "collector_quarantined_total",
            topic=collector.topic,
            reason="non_finite:value",
        )
        assert counter.value == 1


class TestConsumerResync:
    def make_pruned_gap(self):
        """A consumer left behind a fully pruned log head."""
        broker = Broker(registry=MetricsRegistry())
        ahead = broker.consumer("query_logs")
        behind = broker.consumer("query_logs")
        for i in range(5):
            broker.publish("query_logs", "k", {"i": i})
        ahead.poll()
        behind.poll()
        # `behind` rewinds to 2, then the broker prunes past it: its
        # registered offset was 5 at prune time, so base jumps to 5.
        broker.prune()
        behind.seek(2)
        return broker, behind

    def test_stuck_detection(self):
        broker, behind = self.make_pruned_gap()
        assert broker.base_offset("query_logs") == 5
        assert broker.retained("query_logs") == 0
        assert behind.stuck
        assert behind.poll() == []  # spins forever without a resync
        assert behind.lag > 0

    def test_resync_recovers_and_counts(self):
        broker, behind = self.make_pruned_gap()
        assert behind.resync_to_base()
        assert behind.offset == 5
        assert not behind.stuck
        counter = broker.registry.get(
            "broker_offset_resyncs_total", topic="query_logs", consumer=behind.name
        )
        assert counter.value == 1
        # New traffic flows again after the resync.
        broker.publish("query_logs", "k", {"i": 5})
        assert [m.value["i"] for m in behind.poll()] == [5]

    def test_resync_is_a_noop_when_healthy(self):
        broker = Broker(registry=MetricsRegistry())
        consumer = broker.consumer("query_logs")
        broker.publish("query_logs", "k", {"i": 0})
        assert not consumer.stuck
        assert not consumer.resync_to_base()

    def test_not_stuck_while_messages_retained(self):
        # With retained messages, Broker.read self-heals at base offset.
        broker = Broker(registry=MetricsRegistry())
        ahead = broker.consumer("query_logs")
        behind = broker.consumer("query_logs")
        for i in range(5):
            broker.publish("query_logs", "k", {"i": i})
        ahead.poll()
        behind.poll()
        broker.publish("query_logs", "k", {"i": 5})
        broker.prune()
        behind.seek(0)
        assert not behind.stuck
        assert [m.value["i"] for m in behind.poll()] == [5]


def count_validator_calls(monkeypatch) -> dict[str, int]:
    """Count calls of both block validators, wherever they are called."""
    from repro.collection import blocks

    calls = {"query": 0, "metric": 0}
    for kind, name in (("query", "validate_query_block"), ("metric", "validate_metric_block")):
        original = getattr(blocks, name)

        def counted(block, _kind=kind, _original=original):
            calls[_kind] += 1
            return _original(block)

        monkeypatch.setattr(blocks, name, counted)
    return calls


def query_block(sql_ids=("q1", "q2"), instance="db-a") -> QueryLogBlock:
    data = np.array(
        [(0, 5_000, 10.0, 100.0), (1, 5_200, 5.0, 50.0), (0, 5_400, 20.0, 200.0)],
        dtype=QUERY_BLOCK_DTYPE,
    )
    return QueryLogBlock(sql_ids=sql_ids, data=data, instance=instance)


def metric_block(metrics=("active_session",), instance="db-a") -> MetricBlock:
    data = np.array([(0, 5, 3.0), (0, 6, 4.0)], dtype=METRIC_BLOCK_DTYPE)
    return MetricBlock(metrics=metrics, data=data, instance=instance)


class TestValidateOnce:
    """``publish_block`` validates a block once and records the verdict on
    its message; the consumers validate only messages without it."""

    def test_published_block_reaches_each_validator_once(self, monkeypatch):
        calls = count_validator_calls(monkeypatch)
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        q = broker.publish_block("query_logs.db-a", query_block())
        m = broker.publish_block("performance_metrics.db-a", metric_block())
        assert q.validated and m.validated
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=registry)
        engine.step()
        assert engine.logstore.total_queries() == 3
        assert engine.detector.stream_time == 6
        assert calls == {"query": 1, "metric": 1}

    @pytest.mark.parametrize(
        "payload,reason",
        [
            (query_block(sql_ids=()), "missing_dictionary"),
            (query_block(sql_ids=("q1", "")), "bad_type:sql_ids"),
            (metric_block(), "not_a_block"),
            ({"sql_id": "q1"}, "not_a_block"),
        ],
        ids=["no-dictionary", "empty-name", "metric-block", "dict"],
    )
    def test_raw_publish_is_validated_by_the_query_consumer(self, payload, reason):
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        message = broker.publish("query_logs.db-a", "k", payload)
        assert not message.validated
        assert validate_query_block(payload) == reason
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=registry)
        engine.step()
        assert dead_letter_reasons(broker, "query_logs.db-a") == [reason]
        assert engine.logstore.total_queries() == 0

    @pytest.mark.parametrize(
        "payload,reason",
        [
            (metric_block(metrics=()), "missing_dictionary"),
            (metric_block(metrics=("",)), "bad_type:metrics"),
            (query_block(), "not_a_block"),
            ([1, 2, 3], "not_a_block"),
        ],
        ids=["no-dictionary", "empty-name", "query-block", "list"],
    )
    def test_raw_publish_is_validated_by_the_metric_consumer(self, payload, reason):
        broker = Broker(registry=MetricsRegistry())
        broker.publish("performance_metrics", "k", payload)
        assert validate_metric_block(payload) == reason
        detector = RealtimeAnomalyDetector(broker.consumer("performance_metrics"))
        assert detector.poll() == []
        assert dead_letter_reasons(broker, "performance_metrics") == [reason]
        assert detector.stream_time is None

    def test_a_block_validated_for_the_other_stream_is_rejected(self):
        # The verdict says "a valid block", not "a valid block of this
        # topic's kind": a metric block on a query topic is still refused.
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        message = broker.publish_block("query_logs.db-a", metric_block())
        assert message.validated
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=registry)
        engine.step()
        assert dead_letter_reasons(broker, "query_logs.db-a") == ["not_a_block"]

    def test_a_cached_dictionary_does_not_hide_an_empty_name(self):
        assert validate_query_block(query_block(sql_ids=("q1", "q2"))) is None
        assert validate_query_block(query_block(sql_ids=("q1", ""))) == "bad_type:sql_ids"
        assert validate_metric_block(metric_block(metrics=("cpu",))) is None
        assert validate_metric_block(metric_block(metrics=("",))) == "bad_type:metrics"
        broker = Broker(registry=MetricsRegistry())
        assert broker.publish_block("query_logs", query_block(sql_ids=("q1", "q2")))
        assert broker.publish_block("query_logs", query_block(sql_ids=("q1", ""))) is None
        assert dead_letter_reasons(broker, "query_logs") == ["bad_type:sql_ids"]

    def test_unhashable_dictionaries_are_still_checked(self):
        block = query_block(sql_ids=(["q1"], "q2"))
        assert validate_query_block(block) == "bad_type:sql_ids"
