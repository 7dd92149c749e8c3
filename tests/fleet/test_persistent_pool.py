"""Persistent shard worker pool: columnar feeds, supervision, telemetry.

The multiprocess fleet path (``run_sharded`` with ``processes > 1``)
runs on :class:`PersistentWorkerPool` — long-lived worker processes
pulling one columnarised :class:`WorkItem` at a time; with one process
the pool runs the same items inline.  These tests pin the contracts:
block shipping loses nothing relative to a per-record drain, a
chaos-crashed worker process is respawned and its item resubmitted, an
item that keeps crashing is abandoned with zero counts instead of
failing the run, and every outcome is counted.
"""

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.fleet import (
    PersistentWorkerPool,
    WorkItem,
    block_feed_from_broker,
    columnarize_feed,
    execute_work_item,
    feed_from_broker,
    run_sharded,
    stable_shard,
)
from repro.fleet.sharded import InstanceFeed
from repro.telemetry import MetricsRegistry
from tests.fleet.conftest import ANOMALOUS, INSTANCE_IDS, per_record_drain


def _counter(registry, name, **labels):
    instrument = registry.get(name, **labels)
    return 0 if instrument is None else instrument.value


def _tiny_feed(instance_id="db-t"):
    """A minimal but valid feed: enough to drain a service quickly."""
    records = [
        (
            instance_id,
            {
                "second": s,
                "sql_id": "q1",
                "arrive_ms": [s * 1000 + 10],
                "response_ms": [5.0],
                "examined_rows": [40.0],
                "instance": instance_id,
            },
        )
        for s in range(20)
    ]
    metrics = [
        (
            instance_id,
            {
                "metric": "cpu",
                "timestamp": s,
                "value": 0.2,
                "instance": instance_id,
            },
        )
        for s in range(20)
    ]
    return columnarize_feed(
        InstanceFeed(
            instance_id=instance_id, query_records=records, metric_records=metrics
        )
    )


class TestColumnarize:
    def test_valid_records_become_blocks(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = feed_from_broker(broker, "db-a")
        block_feed = columnarize_feed(feed)
        assert block_feed.instance_id == "db-a"
        assert block_feed.query_payloads and block_feed.metric_payloads
        # Everything in the simulated stream is valid → no leftovers.
        assert not block_feed.query_records
        assert not block_feed.metric_records
        assert block_feed.nbytes > 0
        assert block_feed.n_blocks == len(block_feed.query_payloads) + len(
            block_feed.metric_payloads
        )
        assert block_feed_from_broker(broker, "db-a").nbytes == block_feed.nbytes

    def test_invalid_records_ride_along_as_leftovers(self):
        feed = InstanceFeed(
            instance_id="db-x",
            query_records=[("db-x", {"second": 1, "garbage": True})],
            metric_records=[("db-x", {"metric": "cpu", "timestamp": -1, "value": 1})],
        )
        block_feed = columnarize_feed(feed)
        assert not block_feed.query_payloads
        assert not block_feed.metric_payloads
        assert len(block_feed.query_records) == 1
        assert len(block_feed.metric_records) == 1

    def test_block_shipping_is_smaller_than_record_pickles(self, fleet_stream):
        import pickle

        broker, _, _ = fleet_stream
        feed = feed_from_broker(broker, "db-a")
        block_feed = columnarize_feed(feed)
        assert block_feed.nbytes < len(pickle.dumps(feed))


class TestEquivalence:
    def test_work_item_matches_inline_shard(self, fleet_stream):
        """One instance through a work item == a per-record drain."""
        broker, _, _ = fleet_stream
        feed = feed_from_broker(broker, "db-a")
        records = per_record_drain(broker, ["db-a"])
        columnar = execute_work_item(WorkItem(feed=columnarize_feed(feed)))
        assert columnar["counts"] == records
        assert records["db-a"] >= 1

    def test_pool_matches_inline_counts(self, fleet_stream, record_drain_counts):
        broker, _, _ = fleet_stream
        feeds = [feed_from_broker(broker, i) for i in INSTANCE_IDS]
        inline = run_sharded(feeds, processes=1)
        pooled = run_sharded(feeds, processes=2)
        assert pooled == inline == record_drain_counts
        for instance_id in ANOMALOUS:
            assert pooled[instance_id] >= 1

    def test_pool_with_more_instances_than_workers(self, fleet_stream):
        """All items complete even when instances queue behind workers."""
        broker, _, _ = fleet_stream
        items = [
            WorkItem(
                feed=block_feed_from_broker(broker, instance_id),
                shard_key=f"shard-{stable_shard(instance_id, 1):02d}",
            )
            for instance_id in INSTANCE_IDS
        ]
        registry = MetricsRegistry()
        pool = PersistentWorkerPool(processes=1, registry=registry)
        counts = pool.run(items)
        assert set(counts) == set(INSTANCE_IDS)
        assert _counter(registry, "fleet_work_items_total", status="submitted") == 3
        assert _counter(registry, "fleet_work_items_total", status="completed") == 3
        assert _counter(registry, "fleet_shard_bytes_shipped_total") == sum(
            item.feed.nbytes for item in items
        )


class TestSupervision:
    def test_crashed_worker_is_respawned_and_item_resubmitted(self):
        plan = FaultPlan(
            name="crash-once",
            seed=11,
            specs=(
                FaultSpec(kind="worker_crash", rate=1.0, params={"max_crashes": 1}),
            ),
        )
        registry = MetricsRegistry()
        pool = PersistentWorkerPool(
            processes=2, max_restarts=2, registry=registry, poll_interval_s=0.05
        )
        counts = pool.run([_tiny_feed_item("db-t", plan)])
        # The retried attempt runs clean (max_crashes=1) and completes.
        assert counts == {"db-t": 0}
        assert _counter(registry, "fleet_work_items_total", status="resubmitted") == 1
        assert _counter(registry, "fleet_work_items_total", status="completed") == 1
        assert (
            _counter(registry, "fleet_worker_restarts_total", instance="shard-00")
            == 1
        )
        # The process died, so its spans are accounted as dropped.
        assert _counter(registry, "span_export_dropped_total", instance="db-t") == 1
        assert _counter(registry, "fleet_work_items_total", status="abandoned") == 0

    def test_unrecoverable_item_is_abandoned_not_fatal(self):
        plan = FaultPlan(
            name="crash-forever",
            seed=11,
            specs=(
                FaultSpec(kind="worker_crash", rate=1.0, params={"max_crashes": 10}),
            ),
        )
        registry = MetricsRegistry()
        pool = PersistentWorkerPool(
            processes=2, max_restarts=1, registry=registry, poll_interval_s=0.05
        )
        counts = pool.run([_tiny_feed_item("db-z", plan)])
        assert counts == {"db-z": 0}
        assert _counter(registry, "fleet_work_items_total", status="abandoned") == 1
        assert _counter(registry, "fleet_worker_failures_total", instance="db-z") == 1
        # submitted: initial + one resubmission that also crashed.
        assert _counter(registry, "fleet_work_items_total", status="resubmitted") == 1

    def test_worker_error_without_crash_is_supervised_too(self):
        """A worker exception (not a process death) follows the same path."""
        feed = _tiny_feed("db-e")
        feed.query_payloads.insert(0, b"PQB1 this is not a frame")
        registry = MetricsRegistry()
        pool = PersistentWorkerPool(processes=1, registry=registry)
        # Undecodable frames are quarantined inside the worker, not
        # fatal: the item still completes.
        counts = pool.run([WorkItem(feed=feed)])
        assert counts == {"db-e": 0}
        assert _counter(registry, "fleet_work_items_total", status="completed") == 1

    def test_empty_run_is_a_no_op(self):
        assert PersistentWorkerPool(processes=2).run([]) == {}

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            PersistentWorkerPool(processes=0)


def _tiny_feed_item(instance_id, plan):
    return WorkItem(feed=_tiny_feed(instance_id), fault_plan=plan, shard_key="shard-00")


class TestDiagnosisIdentity:
    def test_block_fed_service_produces_identical_diagnoses(self, fleet_stream):
        """Not just equal counts: the diagnoses themselves must match.

        The per-record service and a service fed the same traffic as
        columnar blocks must agree on the anomaly window, the phenomenon
        types, the full H-SQL/R-SQL rankings, the rule verdict and the
        evidence confidence — the columnar wire format is an encoding,
        not a different detector.
        """
        from repro.collection import Broker
        from repro.collection.collector import METRIC_TOPIC, QUERY_TOPIC
        from repro.collection.stream import instance_topic
        from repro.fleet import FleetConfig, FleetDiagnosisService
        from repro.fleet.workers import BlockDecodeError, decode_block

        broker, _, _ = fleet_stream
        instance_id = "db-a"
        feed = feed_from_broker(broker, instance_id)
        query_topic = instance_topic(QUERY_TOPIC, instance_id)
        metric_topic = instance_topic(METRIC_TOPIC, instance_id)

        record_broker = Broker()
        for key, value in feed.query_records:
            record_broker.publish(query_topic, key, value)
        for key, value in feed.metric_records:
            record_broker.publish(metric_topic, key, value)

        block_feed = columnarize_feed(feed)
        block_broker = Broker()
        for payload in block_feed.query_payloads:
            block_broker.publish_block(query_topic, decode_block(payload))
        for payload in block_feed.metric_payloads:
            block_broker.publish_block(metric_topic, decode_block(payload))

        def drain(b):
            service = FleetDiagnosisService(b, FleetConfig(workers=1))
            service.register_instance(instance_id)
            service.run_until_drained()
            return service.diagnoses_for(instance_id)

        from_records = drain(record_broker)
        from_blocks = drain(block_broker)
        assert len(from_records) == len(from_blocks) >= 1
        for a, b in zip(from_records, from_blocks):
            assert (a.anomaly.start, a.anomaly.end) == (b.anomaly.start, b.anomaly.end)
            assert a.anomaly.types == b.anomaly.types
            assert a.result.hsql_ids == b.result.hsql_ids
            assert a.result.rsql_ids == b.result.rsql_ids
            assert (a.verdict is None) == (b.verdict is None)
            if a.verdict is not None:
                assert a.verdict.category == b.verdict.category
            assert a.confidence == b.confidence
            assert a.degraded_reasons == b.degraded_reasons
