"""Data Collection & Pre-processing (paper Section IV-A).

In production PinSQL ships query logs through collectors → Kafka →
Flink → LogStore.  This package provides in-process functional
equivalents: a polling message broker, instance-side collectors, a
retention-bounded log store, and the windowed aggregation that rolls
raw query records up into per-template metric series (1 s and 1 min
granularities).
"""

from repro.collection.stream import (
    Broker,
    Consumer,
    Message,
    instance_topic,
    split_topic,
)
from repro.collection.collector import (
    QueryLogCollector,
    MetricsCollector,
    QUERY_TOPIC,
    METRIC_TOPIC,
)
from repro.collection.aggregator import (
    TemplateMetricStore,
    aggregate_query_log,
    aggregate_logstore,
    TEMPLATE_METRICS,
)
from repro.collection.logstore import LogStore
from repro.collection.blocks import (
    BLOCK_KEY,
    MetricBlock,
    QueryLogBlock,
    metric_block_from_metrics,
    query_block_from_log,
    split_by_second,
    split_query_block,
    validate_metric_block,
    validate_query_block,
)
from repro.collection.quarantine import (
    DEAD_LETTER_PREFIX,
    dead_letter_topic,
    quarantine,
)

__all__ = [
    "Broker",
    "Consumer",
    "Message",
    "DEAD_LETTER_PREFIX",
    "dead_letter_topic",
    "quarantine",
    "instance_topic",
    "split_topic",
    "QueryLogCollector",
    "MetricsCollector",
    "QUERY_TOPIC",
    "METRIC_TOPIC",
    "TemplateMetricStore",
    "aggregate_query_log",
    "aggregate_logstore",
    "TEMPLATE_METRICS",
    "LogStore",
    "BLOCK_KEY",
    "MetricBlock",
    "QueryLogBlock",
    "metric_block_from_metrics",
    "query_block_from_log",
    "split_by_second",
    "split_query_block",
    "validate_metric_block",
    "validate_query_block",
]
