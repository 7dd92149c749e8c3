"""Batched (columnar) ingestion must reproduce the per-record path.

The equivalence contract of the columnar dataplane: shipping the same
queries as blocks instead of per-(second, template) records changes
nothing downstream — LogStore window reads and aggregates are
byte-identical, the diagnosis engine's streaming path (broker drain →
LogStore → window aggregation) is byte-identical to the batch
aggregation, and batches ingested out of order read back in arrival
order.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.collection import (
    Broker,
    LogStore,
    aggregate_logstore,
    aggregate_query_log,
    query_block_from_log,
)
from repro.collection.blocks import (
    QUERY_BLOCK_DTYPE,
    QueryLogBlock,
    split_by_second,
    split_query_block,
)
from repro.dbsim import QueryLog, SecondBatch
from repro.fleet import InstanceDiagnosisEngine
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


def drain_engine(block: QueryLogBlock, instance_id: str = "db-a"):
    """Publish one block to the instance's partition and let an engine
    drain it: the streaming path into the engine's LogStore."""
    registry = MetricsRegistry()
    broker = Broker(registry=registry)
    broker.publish_block(f"query_logs.{instance_id}", block)
    engine = InstanceDiagnosisEngine(broker, instance_id, registry=registry)
    engine.step()
    assert engine.lag == 0
    return engine


class TestStreamAggregatorEquivalence:
    def test_block_path_matches_batch_aggregation_bit_for_bit(self):
        log = make_log()
        engine = drain_engine(query_block_from_log(log, instance="db-a"))
        snapshot = aggregate_logstore(engine.logstore, 0, 30)
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
        engine = drain_engine(query_block_from_log(log, instance="db-other"))
        assert engine.logstore.total_queries() == 0
        assert aggregate_logstore(engine.logstore, 0, 30).sql_ids == []


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


# ----------------------------------------------------------------------
# Block-grain ingest: ``ingest_block`` queues the whole block as one log
# chunk; the reference path feeds the same rows one template batch at a
# time through ``ingest_batch``.
# ----------------------------------------------------------------------
def make_tied_log(seed=11, templates=5, seconds=40):
    """A log whose arrivals fall on 100 ms steps, so ties are common."""
    rng = np.random.default_rng(seed)
    log = QueryLog()
    for t in range(templates):
        for s in range(seconds):
            n = int(rng.integers(0, 5))
            if n == 0:
                continue
            arrive = np.sort(s * 1000 + 100 * rng.integers(0, 10, size=n))
            log.append(
                SecondBatch(
                    f"q{t}",
                    arrive.astype(np.int64),
                    rng.uniform(1.0, 50.0, size=n),
                    rng.uniform(10.0, 500.0, size=n),
                )
            )
    return log


def per_second_blocks(log):
    return split_by_second(query_block_from_log(log))


def bulk_blocks(log):
    return split_query_block(query_block_from_log(log), max_rows=37)


def late_reordered_blocks(log, seed=3):
    """Per-second blocks delivered out of order, each with its rows reversed."""
    blocks = per_second_blocks(log)
    order = np.random.default_rng(seed).permutation(len(blocks))
    return [replace(blocks[i], data=blocks[i].data[::-1].copy()) for i in order]


def duplicated_blocks(log):
    """Every third per-second block delivered twice: at once and at the end."""
    blocks = per_second_blocks(log)
    out = []
    for i, block in enumerate(blocks):
        out.append(block)
        if i % 3 == 0:
            out.append(block)
    return out + blocks[::5]


DELIVERIES = {
    "per_second": per_second_blocks,
    "bulk": bulk_blocks,
    "late_reordered": late_reordered_blocks,
    "duplicated": duplicated_blocks,
}


def ingest_per_template(store, block):
    for batch in block.iter_template_batches():
        store.ingest_batch(batch)


def assert_same_reads(ref, new, t0=0, t1=60):
    assert ref.sql_ids == new.sql_ids
    assert ref.total_queries() == new.total_queries()
    for sql_id in ref.sql_ids:
        a = ref.queries_in_window(sql_id, t0, t1)
        b = new.queries_in_window(sql_id, t0, t1)
        np.testing.assert_array_equal(a.arrive_ms, b.arrive_ms)
        np.testing.assert_array_equal(a.response_ms, b.response_ms)
        np.testing.assert_array_equal(a.examined_rows, b.examined_rows)
    agg_ref = aggregate_logstore(ref, t0, t1)
    agg_new = aggregate_logstore(new, t0, t1)
    assert agg_ref.sql_ids == agg_new.sql_ids
    for sql_id in agg_ref.sql_ids:
        for metric in ("#execution", "total_tres", "avg_tres", "total_examined_rows"):
            np.testing.assert_array_equal(
                agg_ref.get(sql_id, metric).values, agg_new.get(sql_id, metric).values
            )


class TestBlockGrainIngest:
    @pytest.mark.parametrize("delivery", sorted(DELIVERIES))
    def test_matches_per_template_batches(self, delivery):
        blocks = DELIVERIES[delivery](make_tied_log())
        ref_registry, new_registry = MetricsRegistry(), MetricsRegistry()
        ref = LogStore(registry=ref_registry, instance_id="db-a")
        new = LogStore(registry=new_registry, instance_id="db-a")
        held = []  # (views handed out, their values when read)
        for i, block in enumerate(blocks):
            ingest_per_template(ref, block)
            assert new.ingest_block(block) == len(block)
            if i % 7 == 3:
                assert_same_reads(ref, new)
                assert_same_reads(ref, new, 5, 17)
                for sql_id in new.sql_ids:
                    tq = new.queries_in_window(sql_id, 0, 60)
                    held.append((tq, (tq.arrive_ms.copy(), tq.response_ms.copy())))
        assert_same_reads(ref, new)
        assert ref_registry.snapshot() == new_registry.snapshot()
        # Views handed out before later (late) blocks were folded in
        # still read what they read then.
        assert held
        for tq, (arrive, response) in held:
            np.testing.assert_array_equal(tq.arrive_ms, arrive)
            np.testing.assert_array_equal(tq.response_ms, response)

    def test_ties_keep_ingest_order(self):
        data = np.zeros(3, dtype=QUERY_BLOCK_DTYPE)
        data["arrive_ms"] = [2_000, 1_000, 2_000]
        data["response_ms"] = [1.0, 2.0, 3.0]
        late = data.copy()
        late["response_ms"] = [4.0, 5.0, 6.0]
        store = LogStore(registry=MetricsRegistry())
        store.ingest_block(QueryLogBlock(sql_ids=("q",), data=data))
        store.ingest_block(QueryLogBlock(sql_ids=("q",), data=late))
        tq = store.queries_in_window("q", 0, 10)
        np.testing.assert_array_equal(tq.arrive_ms, [1_000, 1_000, 2_000, 2_000, 2_000, 2_000])
        np.testing.assert_array_equal(tq.response_ms, [2.0, 5.0, 1.0, 3.0, 4.0, 6.0])

    def test_unread_ingest_queue_stays_bounded(self):
        log = make_tied_log(templates=4, seconds=3000)
        store = LogStore(registry=MetricsRegistry())
        blocks = per_second_blocks(log)
        assert len(blocks) > 2000
        for block in blocks:
            store.ingest_block(block)
            assert store._log.queued_chunks <= store._log.n_templates
        assert store._log.n_templates == 4
        assert store.total_queries() == log.total_queries
        ref = LogStore(registry=MetricsRegistry())
        for block in blocks:
            ingest_per_template(ref, block)
        assert_same_reads(ref, store, 0, 3000)

    @pytest.mark.parametrize("delivery", sorted(DELIVERIES))
    def test_expire_after_unread_ingest(self, delivery):
        log = make_tied_log()
        store = LogStore(retention_s=10, registry=MetricsRegistry())
        ref = LogStore(retention_s=10, registry=MetricsRegistry())
        arrivals = []
        for block in DELIVERIES[delivery](log):
            store.ingest_block(block)
            ingest_per_template(ref, block)
            arrivals.append(block.data["arrive_ms"])
        arrivals = np.concatenate(arrivals)
        cutoff_ms = (35 - 10) * 1000
        expected = int(np.count_nonzero(arrivals < cutoff_ms))
        assert expected
        assert store.expire(35) == expected
        assert ref.expire(35) == expected
        remaining = len(arrivals) - expected
        assert store.total_queries() == remaining
        assert store.resident_bytes == ref.resident_bytes == remaining * 24
        for sql_id in store.sql_ids:
            assert store.queries_in_window(sql_id, 0, 25).arrive_ms.size == 0
        assert_same_reads(ref, store)
