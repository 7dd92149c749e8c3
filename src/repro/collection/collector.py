"""Instance-side collectors.

``QueryLogCollector`` drains a simulated instance's query log into the
broker — the asynchronous, outside-the-instance shipping that keeps
PinSQL's overhead negligible compared with in-database monitoring
(paper Section IV-C discussion).  ``MetricsCollector`` ships the
performance-metric points.

Every message is one columnar block
(:class:`~repro.collection.blocks.QueryLogBlock` /
:class:`~repro.collection.blocks.MetricBlock`), cut at one of two
grains from the same whole-log block:

- :meth:`QueryLogCollector.collect` / :meth:`MetricsCollector.collect`
  ship one block per stream-time second — the streaming grain, which
  chaos, fuzz and lead-time replays use so that faults, late arrival
  and chunked replay act on seconds of traffic;
- :meth:`QueryLogCollector.collect_blocks` /
  :meth:`MetricsCollector.collect_blocks` ship row-bounded bulk blocks
  — the throughput grain of fleet and sharded runs.

Each block is validated at publish; a malformed one is quarantined to
the dead-letter topic.

Collectors are *instance-scoped*: constructed with an ``instance_id``
they publish to that instance's topic partition
(``query_logs.<instance_id>`` etc., see
:func:`~repro.collection.stream.instance_topic`) and stamp every record
with the id, so a fleet of collectors multiplexes one broker without
record-level ambiguity.  The default empty id publishes to the bare
``query_logs`` / ``performance_metrics`` topics, which standalone
collectors use when no diagnosis engine consumes them.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.collection.blocks import (
    metric_block_from_metrics,
    query_block_from_log,
    split_by_second,
    split_query_block,
)
from repro.collection.stream import Broker, instance_topic
from repro.dbsim.monitor import InstanceMetrics
from repro.dbsim.query import QueryLog

__all__ = [
    "QueryLogCollector",
    "MetricsCollector",
    "QUERY_TOPIC",
    "METRIC_TOPIC",
    "DEFAULT_BLOCK_ROWS",
]

QUERY_TOPIC = "query_logs"
METRIC_TOPIC = "performance_metrics"

#: Default row bound per published block message.
DEFAULT_BLOCK_ROWS = 262_144


def _publish(broker: Broker, topic: str, blocks: Iterable) -> int:
    """Publish blocks in order; returns how many passed validation."""
    return sum(broker.publish_block(topic, block) is not None for block in blocks)


class QueryLogCollector:
    """Publishes query-log blocks to the broker."""

    def __init__(
        self,
        broker: Broker,
        topic: str | None = None,
        instance_id: str = "",
    ) -> None:
        self.broker = broker
        self.instance_id = instance_id
        self.topic = topic if topic is not None else instance_topic(QUERY_TOPIC, instance_id)
        broker.create_topic(self.topic)

    def collect(self, query_log: QueryLog) -> int:
        """Ship the log as one block per stream-time second; returns
        blocks sent."""
        block = query_block_from_log(query_log, instance=self.instance_id)
        return _publish(self.broker, self.topic, split_by_second(block))

    def collect_blocks(
        self,
        query_log: QueryLog,
        statements: Mapping[str, str] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> int:
        """Ship the whole log as columnar blocks; returns blocks sent.

        One message carries one :class:`QueryLogBlock` of up to
        ``block_rows`` rows — the batch dataplane.  ``statements``
        optionally maps sql_id → raw exemplar so downstream catalogs
        learn templates across the wire.
        """
        block = query_block_from_log(
            query_log, instance=self.instance_id, statements=statements
        )
        if len(block) == 0:
            return 0
        return _publish(self.broker, self.topic, split_query_block(block, block_rows))


class MetricsCollector:
    """Publishes performance-metric blocks to the broker."""

    def __init__(
        self,
        broker: Broker,
        topic: str | None = None,
        instance_id: str = "",
    ) -> None:
        self.broker = broker
        self.instance_id = instance_id
        self.topic = topic if topic is not None else instance_topic(METRIC_TOPIC, instance_id)
        broker.create_topic(self.topic)

    def collect(self, metrics: InstanceMetrics) -> int:
        """Ship the samples as one block per stream-time second; returns
        blocks sent."""
        block = metric_block_from_metrics(metrics, instance=self.instance_id)
        return _publish(self.broker, self.topic, split_by_second(block))

    def collect_blocks(self, metrics: InstanceMetrics) -> int:
        """Ship every metric series as one columnar block message."""
        block = metric_block_from_metrics(metrics, instance=self.instance_id)
        if len(block) == 0:
            return 0
        return 1 if self.broker.publish_block(self.topic, block) is not None else 0
