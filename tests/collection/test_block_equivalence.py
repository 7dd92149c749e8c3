"""Batched (columnar) ingestion must reproduce the per-record path.

The equivalence contract of the columnar dataplane: shipping the same
queries as blocks instead of per-(second, template) records changes
nothing downstream — LogStore window reads and aggregates are
byte-identical, the stream aggregator's snapshot is byte-identical to
the batch aggregation, and batches ingested out of order read back in
arrival order.
"""

import numpy as np

from repro.collection import (
    Broker,
    LogStore,
    StreamAggregator,
    aggregate_logstore,
    aggregate_query_log,
    query_block_from_log,
)
from repro.dbsim import QueryLog, SecondBatch
from repro.telemetry import MetricsRegistry


def make_log(seed=7, templates=3, seconds=30):
    """A deterministic multi-template log with irregular arrivals."""
    rng = np.random.default_rng(seed)
    log = QueryLog()
    for t in range(templates):
        for s in range(0, seconds, 1 + t):
            n = int(rng.integers(1, 6))
            arrive = np.sort(rng.integers(s * 1000, (s + 1) * 1000, size=n))
            log.append(
                SecondBatch(
                    f"q{t}",
                    arrive.astype(np.int64),
                    rng.uniform(1.0, 50.0, size=n),
                    rng.uniform(10.0, 500.0, size=n),
                )
            )
    return log


def ingest_per_record(log):
    store = LogStore(registry=MetricsRegistry())
    for tq in log.iter_templates():
        # The wire format ships one batch per (second, template); split
        # the template stream on second boundaries the way the
        # collector does.
        seconds = tq.arrive_ms // 1000
        for s in np.unique(seconds):
            mask = seconds == s
            store.ingest_batch(
                SecondBatch(
                    tq.sql_id,
                    tq.arrive_ms[mask],
                    tq.response_ms[mask],
                    tq.examined_rows[mask],
                )
            )
    return store


def ingest_as_block(log, instance=""):
    store = LogStore(registry=MetricsRegistry())
    store.ingest_block(query_block_from_log(log, instance=instance))
    return store


class TestLogStoreEquivalence:
    def test_window_reads_are_byte_identical(self):
        log = make_log()
        per_record = ingest_per_record(log)
        block = ingest_as_block(log)
        for sql_id in per_record.sql_ids:
            a = per_record.queries_in_window(sql_id, 5, 25)
            b = block.queries_in_window(sql_id, 5, 25)
            np.testing.assert_array_equal(a.arrive_ms, b.arrive_ms)
            np.testing.assert_array_equal(a.response_ms, b.response_ms)
            np.testing.assert_array_equal(a.examined_rows, b.examined_rows)

    def test_aggregate_logstore_output_is_byte_identical(self):
        log = make_log()
        from_records = aggregate_logstore(ingest_per_record(log), 0, 30)
        from_blocks = aggregate_logstore(ingest_as_block(log), 0, 30)
        assert set(from_records.sql_ids) == set(from_blocks.sql_ids)
        for sql_id in from_records.sql_ids:
            for metric in (
                "#execution",
                "total_tres",
                "avg_tres",
                "total_examined_rows",
            ):
                np.testing.assert_array_equal(
                    from_records.get(sql_id, metric).values,
                    from_blocks.get(sql_id, metric).values,
                )

    def test_query_counts_match(self):
        log = make_log()
        assert (
            ingest_per_record(log).total_queries()
            == ingest_as_block(log).total_queries()
        )


class TestStreamAggregatorEquivalence:
    def test_block_path_matches_batch_aggregation_bit_for_bit(self):
        log = make_log()
        broker = Broker(registry=MetricsRegistry())
        broker.publish_block("query_logs", query_block_from_log(log))
        aggregator = StreamAggregator(broker.consumer("query_logs"), start=0, end=30)
        aggregator.drain()
        snapshot = aggregator.snapshot()
        reference = aggregate_query_log(log, 0, 30)
        assert set(snapshot.sql_ids) == set(reference.sql_ids)
        for sql_id in reference.sql_ids:
            for metric in ("#execution", "total_tres", "total_examined_rows"):
                np.testing.assert_array_equal(
                    snapshot.get(sql_id, metric).values,
                    reference.get(sql_id, metric).values,
                )

    def test_instance_filter_skips_foreign_blocks(self):
        log = make_log()
        broker = Broker(registry=MetricsRegistry())
        broker.publish_block(
            "query_logs", query_block_from_log(log, instance="db-other")
        )
        aggregator = StreamAggregator(
            broker.consumer("query_logs"), start=0, end=30, instance_id="db-a"
        )
        aggregator.drain()
        assert aggregator.snapshot().sql_ids == []


class TestOutOfOrderIngestion:
    def test_late_then_early_reads_sorted(self):
        store = LogStore(registry=MetricsRegistry())
        store.ingest_batch(
            SecondBatch(
                "q0",
                np.array([9_000, 9_500], dtype=np.int64),
                np.array([1.0, 2.0]),
                np.array([10.0, 20.0]),
            )
        )
        np.testing.assert_array_equal(
            store.queries_in_window("q0", 0, 30).arrive_ms, [9_000, 9_500]
        )
        store.ingest_batch(  # earlier than everything already stored
            SecondBatch(
                "q0",
                np.array([1_000, 9_000], dtype=np.int64),
                np.array([3.0, 4.0]),
                np.array([30.0, 40.0]),
            )
        )
        tq = store.queries_in_window("q0", 0, 30)
        np.testing.assert_array_equal(tq.arrive_ms, [1_000, 9_000, 9_000, 9_500])
        # Rows follow their arrivals; the tie keeps ingest order.
        np.testing.assert_array_equal(tq.response_ms, [3.0, 1.0, 4.0, 2.0])
        np.testing.assert_array_equal(tq.examined_rows, [30.0, 10.0, 40.0, 20.0])
