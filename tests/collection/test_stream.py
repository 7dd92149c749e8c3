"""Tests for the in-process broker."""

import numpy as np
import pytest

from repro.collection import Broker
from repro.collection.blocks import QUERY_BLOCK_DTYPE, QueryLogBlock
from repro.telemetry import MetricsRegistry, get_registry, reset_telemetry


def one_row_block() -> QueryLogBlock:
    return QueryLogBlock(
        sql_ids=("q1",), data=np.array([(0, 5_000, 1.0, 1.0)], dtype=QUERY_BLOCK_DTYPE)
    )


class TestBroker:
    def test_publish_and_read(self):
        broker = Broker()
        broker.publish("t", key="a", value=1)
        broker.publish("t", key="b", value=2)
        messages = broker.read("t", 0, 10)
        assert [m.value for m in messages] == [1, 2]
        assert [m.offset for m in messages] == [0, 1]

    def test_topics_autocreated(self):
        broker = Broker()
        broker.publish("x", key="k", value=0)
        assert "x" in broker.topics

    def test_create_topic_idempotent(self):
        broker = Broker()
        broker.create_topic("t")
        broker.publish("t", key="k", value=1)
        broker.create_topic("t")
        assert broker.size("t") == 1

    def test_read_bounds(self):
        broker = Broker()
        for i in range(5):
            broker.publish("t", key="k", value=i)
        assert [m.value for m in broker.read("t", 3, 10)] == [3, 4]
        assert broker.read("t", 10, 5) == []

    def test_invalid_read_args(self):
        with pytest.raises(ValueError):
            Broker().read("t", -1, 5)

    def test_counters_survive_reset_telemetry(self):
        # The broker binds its per-topic instruments once; after a reset
        # of the default registry it must count into the live registry,
        # not into the detached instruments it bound before.
        broker = Broker()
        broker.publish("t", key="k", value=1)
        broker.publish_block("b", one_row_block())
        reset_telemetry()
        broker.publish("t", key="k", value=2)
        broker.publish_block("b", one_row_block())
        registry = get_registry()
        published = "broker_messages_published_total"
        assert registry.get(published, topic="t").value == 1
        assert registry.get(published, topic="b").value == 1
        assert registry.get("broker_blocks_published_total", topic="b").value == 1
        assert registry.get("broker_block_records", topic="b").count == 1

    def test_block_series_appear_with_the_first_block(self):
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        broker.publish("raw", key="k", value=1)
        assert registry.get("broker_messages_published_total", topic="raw").value == 1
        assert registry.get("broker_blocks_published_total", topic="raw") is None
        assert registry.get("broker_block_records", topic="raw") is None
        broker.publish_block("raw", one_row_block())
        assert registry.get("broker_blocks_published_total", topic="raw").value == 1


class TestConsumer:
    def test_poll_advances_offset(self):
        broker = Broker()
        for i in range(10):
            broker.publish("t", key="k", value=i)
        consumer = broker.consumer("t")
        first = consumer.poll(4)
        second = consumer.poll(4)
        assert [m.value for m in first] == [0, 1, 2, 3]
        assert [m.value for m in second] == [4, 5, 6, 7]
        assert consumer.lag == 2

    def test_poll_series_survive_reset_telemetry(self):
        # A consumer made before a reset of the default registry must
        # count its polls into the live registry, not the detached one.
        broker = Broker()
        consumer = broker.consumer("t")
        broker.publish("t", key="k", value=1)
        reset_telemetry()
        broker.publish("t", key="k", value=2)
        assert len(consumer.poll()) == 2
        registry = get_registry()
        assert registry.get("broker_poll_batch_size", topic="t").count == 1
        assert registry.get("broker_consumer_lag", topic="t", consumer=consumer.name).value == 0

    def test_independent_consumers(self):
        broker = Broker()
        broker.publish("t", key="k", value=1)
        c1, c2 = broker.consumer("t"), broker.consumer("t")
        assert c1.poll() and c2.poll()

    def test_seek_replays(self):
        broker = Broker()
        for i in range(3):
            broker.publish("t", key="k", value=i)
        consumer = broker.consumer("t")
        consumer.poll()
        consumer.seek(0)
        assert [m.value for m in consumer.poll()] == [0, 1, 2]

    def test_seek_negative_rejected(self):
        broker = Broker()
        with pytest.raises(ValueError):
            broker.consumer("t").seek(-1)

    def test_poll_on_empty_topic(self):
        broker = Broker()
        consumer = broker.consumer("empty")
        assert consumer.poll() == []
        assert consumer.lag == 0


class TestInstanceTopics:
    def test_instance_topic_roundtrip(self):
        from repro.collection import instance_topic, split_topic

        topic = instance_topic("query_logs", "db-07")
        assert topic == "query_logs.db-07"
        assert split_topic(topic) == ("query_logs", "db-07")

    def test_empty_instance_is_shared_topic(self):
        from repro.collection import instance_topic, split_topic

        assert instance_topic("query_logs") == "query_logs"
        assert split_topic("query_logs") == ("query_logs", "")

    def test_dot_in_instance_id_rejected(self):
        from repro.collection import instance_topic

        with pytest.raises(ValueError, match=r"\."):
            instance_topic("query_logs", "a.b")


class TestPruning:
    def _loaded_broker(self, n=10):
        from repro.telemetry import MetricsRegistry

        broker = Broker(registry=MetricsRegistry())
        for i in range(n):
            broker.publish("t", key="k", value=i)
        return broker

    def test_prune_drops_fully_acked_messages(self):
        broker = self._loaded_broker()
        consumer = broker.consumer("t")
        consumer.poll(6)
        assert broker.prune("t") == 6
        assert broker.retained("t") == 4
        assert broker.base_offset("t") == 6
        # Total published count is unaffected by pruning.
        assert broker.size("t") == 10

    def test_slowest_consumer_bounds_prune(self):
        broker = self._loaded_broker()
        fast, slow = broker.consumer("t"), broker.consumer("t")
        fast.poll(10)
        slow.poll(3)
        assert broker.prune() == 3
        assert broker.retained("t") == 7

    def test_topics_without_consumers_untouched(self):
        broker = self._loaded_broker()
        assert broker.prune() == 0
        assert broker.retained("t") == 10

    def test_absolute_offsets_survive_prune(self):
        broker = self._loaded_broker()
        consumer = broker.consumer("t")
        consumer.poll(5)
        broker.prune("t")
        rest = consumer.poll(10)
        assert [m.value for m in rest] == [5, 6, 7, 8, 9]
        assert [m.offset for m in rest] == [5, 6, 7, 8, 9]

    def test_read_below_base_resumes_at_base(self):
        broker = self._loaded_broker()
        broker.consumer("t").poll(4)
        broker.prune("t")
        messages = broker.read("t", 0, 10)
        assert [m.value for m in messages] == [4, 5, 6, 7, 8, 9]

    def test_seek_below_base_replays_retained_only(self):
        broker = self._loaded_broker()
        consumer = broker.consumer("t")
        consumer.poll(10)
        broker.prune("t")
        consumer.seek(0)
        assert consumer.poll(10) == []
        # A new publish is visible again.
        broker.publish("t", key="k", value=99)
        assert [m.value for m in consumer.poll(10)] == [99]

    def test_prune_counter_and_gauge(self):
        broker = self._loaded_broker()
        broker.consumer("t").poll(7)
        broker.prune()
        registry = broker.registry
        assert registry.get("broker_pruned_messages_total", topic="t").value == 7
        assert registry.get("broker_retained_messages", topic="t").value == 3

    def test_repeated_prune_is_idempotent(self):
        broker = self._loaded_broker()
        broker.consumer("t").poll(5)
        assert broker.prune("t") == 5
        assert broker.prune("t") == 0
