"""Shard worker pool: columnar feeds, supervision, telemetry.

The multiprocess fleet path (``run_sharded`` with ``processes > 1``)
runs on :class:`WorkerPool` — one process per :class:`WorkItem` of
columnar blocks, at most N at once; with one process the pool runs the
same items inline.  These tests pin the contracts: block shipping
loses nothing relative to an in-process drain, the two block grains
diagnose identically, a chaos-crashed item's process is replaced and
its item resubmitted, an
item that keeps crashing is abandoned with zero counts instead of
failing the run, and every outcome is counted.
"""

import multiprocessing
import os

import pytest

from repro.chaos import FaultPlan, FaultSpec, single_fault_plan
from repro.collection.blocks import QueryLogBlock
from repro.fleet import (
    BlockFeed,
    FleetDiagnosisService,
    WorkerPool,
    WorkItem,
    execute_work_item,
    run_sharded,
    stable_shard,
)
from repro.telemetry import MetricsRegistry, Tracer
from tests.fleet.conftest import (
    ANOMALOUS,
    INSTANCE_IDS,
    collected,
    service_drain,
    tiny_feed,
)


def _counter(registry, name, **labels):
    instrument = registry.get(name, **labels)
    return 0 if instrument is None else instrument.value


class TestColumnarize:
    def test_valid_records_become_blocks(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        assert feed.instance_id == "db-a"
        assert feed.query_blocks and feed.metric_blocks
        assert feed.nbytes > 0
        assert feed.n_blocks == len(feed.query_blocks) + len(feed.metric_blocks)
        # The streaming grain: every query block holds one second.
        for block in feed.query_blocks:
            assert isinstance(block, QueryLogBlock) and block.instance == "db-a"
            assert len(set(block.data["arrive_ms"] // 1000)) == 1


class TestEquivalence:
    def test_work_item_matches_inline_shard(self, fleet_stream):
        """One instance through a work item == an in-process drain."""
        broker, _, _ = fleet_stream
        reference = service_drain(broker, ["db-a"])
        columnar = execute_work_item(WorkItem(feed=BlockFeed.from_broker(broker, "db-a")))
        assert columnar["counts"] == reference
        assert reference["db-a"] >= 1

    def test_pool_matches_inline_counts(self, fleet_stream, drain_counts):
        broker, _, _ = fleet_stream
        feeds = [BlockFeed.from_broker(broker, i) for i in INSTANCE_IDS]
        inline = run_sharded(feeds, processes=1)
        pooled = run_sharded(feeds, processes=2)
        assert pooled == inline == drain_counts
        for instance_id in ANOMALOUS:
            assert pooled[instance_id] >= 1

    def test_pool_with_more_instances_than_workers(self, fleet_stream):
        """All items complete even when instances queue behind workers."""
        broker, _, _ = fleet_stream
        items = [
            WorkItem(
                feed=BlockFeed.from_broker(broker, instance_id),
                shard_key=f"shard-{stable_shard(instance_id, 1):02d}",
            )
            for instance_id in INSTANCE_IDS
        ]
        registry = MetricsRegistry()
        pool = WorkerPool(processes=1, registry=registry)
        counts = pool.run(items)
        assert set(counts) == set(INSTANCE_IDS)
        assert _counter(registry, "fleet_work_items_total", status="submitted") == 3
        assert _counter(registry, "fleet_work_items_total", status="completed") == 3
        assert _counter(registry, "fleet_shard_bytes_shipped_total") == sum(
            item.feed.nbytes for item in items
        )

    def test_item_fault_counters_reach_the_pool_registry(self):
        """Chaos counters of an item land in the item's export envelope,
        so they reach the pool's registry, not the process registry."""
        registry = MetricsRegistry()
        pool = WorkerPool(processes=1, registry=registry)
        plan = single_fault_plan("drop", rate=1.0)
        pool.run([WorkItem(tiny_feed("db-d"), fault_plan=plan)])
        assert _counter(registry, "chaos_faults_injected_total", kind="drop") > 0


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
        pool = WorkerPool(processes=2, max_restarts=2, registry=registry)
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
        pool = WorkerPool(processes=2, max_restarts=1, registry=registry)
        counts = pool.run([_tiny_feed_item("db-z", plan)])
        assert counts == {"db-z": 0}
        assert _counter(registry, "fleet_work_items_total", status="abandoned") == 1
        assert _counter(registry, "fleet_worker_failures_total", instance="db-z") == 1
        # submitted: initial + one resubmission that also crashed.
        assert _counter(registry, "fleet_work_items_total", status="resubmitted") == 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched drain reaches the child only by fork",
    )
    def test_child_error_is_resubmitted_then_abandoned(
        self, fleet_stream, monkeypatch
    ):
        """A child whose drain raises (not a crash) reports the error and
        its partial spans down its pipe; the parent adopts the spans,
        resubmits the item and abandons it after ``max_restarts``."""
        drain = FleetDiagnosisService.run_until_drained

        def failing_drain(service):
            drain(service)  # diagnose first, so partial spans exist
            raise RuntimeError("drain failed after diagnosing")

        monkeypatch.setattr(FleetDiagnosisService, "run_until_drained", failing_drain)
        broker, _, _ = fleet_stream
        instance_id = ANOMALOUS[0]
        registry, tracer = MetricsRegistry(), Tracer()
        pool = WorkerPool(processes=2, max_restarts=1, registry=registry, tracer=tracer)
        counts = pool.run([WorkItem(feed=BlockFeed.from_broker(broker, instance_id))])
        assert counts == {instance_id: 0}
        assert _counter(registry, "fleet_work_items_total", status="submitted") == 2
        assert _counter(registry, "fleet_work_items_total", status="resubmitted") == 1
        assert _counter(registry, "fleet_work_items_total", status="abandoned") == 1
        assert _counter(registry, "fleet_work_items_total", status="completed") == 0
        assert (
            _counter(registry, "fleet_worker_failures_total", instance=instance_id)
            == 1
        )
        # Both attempts' partial spans were adopted from child processes;
        # no process died, so nothing counts as a crash.
        diagnose = [s for s in tracer.roots if s.name == "service.diagnose"]
        assert diagnose and len(diagnose) % 2 == 0
        assert os.getpid() not in {s.attrs.get("process") for s in tracer.roots}
        assert _counter(registry, "fleet_spans_imported_total") == len(tracer.roots)
        assert (
            _counter(registry, "span_export_dropped_total", instance=instance_id)
            == 0
        )

    def test_worker_error_without_crash_is_supervised_too(self):
        """A bad payload in a feed is quarantined inside the worker, not
        fatal: the item still completes."""
        feed = tiny_feed("db-e")
        feed.query_blocks.insert(0, "this is not a block")
        registry = MetricsRegistry()
        pool = WorkerPool(processes=1, registry=registry)
        counts = pool.run([WorkItem(feed=feed)])
        assert counts == {"db-e": 0}
        assert _counter(registry, "fleet_work_items_total", status="completed") == 1
        assert _counter(
            registry, "collector_quarantined_total",
            topic="query_logs.db-e", reason="not_a_block",
        ) == 1

    def test_non_block_in_metric_feed_is_quarantined_too(self):
        feed = tiny_feed("db-m")
        feed.metric_blocks.append({"cpu": 0.5})
        registry = MetricsRegistry()
        pool = WorkerPool(processes=1, registry=registry)
        counts = pool.run([WorkItem(feed=feed)])
        assert counts == {"db-m": 0}
        assert _counter(registry, "fleet_work_items_total", status="completed") == 1
        assert _counter(
            registry, "collector_quarantined_total",
            topic="performance_metrics.db-m", reason="not_a_block",
        ) == 1

    def test_empty_run_is_a_no_op(self):
        assert WorkerPool(processes=2).run([]) == {}

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            WorkerPool(processes=0)


def _tiny_feed_item(instance_id, plan):
    return WorkItem(feed=tiny_feed(instance_id), fault_plan=plan, shard_key="shard-00")


class TestGrainIdentity:
    def test_both_grains_diagnose_identically(self, fleet_runs):
        """The golden test of the one wire format: its two grains.

        A service fed one block per second (``collect``) and a service
        fed row-bounded bulk blocks (``collect_blocks``) must agree on
        every diagnosis — the anomaly window, the phenomenon types, the
        full H-SQL/R-SQL rankings, the rule verdict and the evidence
        confidence.  The grain is a shipping choice, not a different
        detector.
        """
        runs, _, _ = fleet_runs

        def drain(grain):
            service = FleetDiagnosisService(collected(runs, grain))
            for instance_id in INSTANCE_IDS:
                service.register_instance(instance_id)
            service.run_until_drained()
            return [d for i in INSTANCE_IDS for d in service.diagnoses_for(i)]

        per_second, bulk = drain("collect"), drain("collect_blocks")
        assert len(per_second) == len(bulk) >= len(ANOMALOUS)
        for a, b in zip(per_second, bulk):
            assert a.instance_id == b.instance_id
            assert (a.anomaly.start, a.anomaly.end) == (b.anomaly.start, b.anomaly.end)
            assert a.anomaly.types == b.anomaly.types
            assert a.result.hsql_ids == b.result.hsql_ids
            assert a.result.rsql_ids == b.result.rsql_ids
            assert (a.verdict is None) == (b.verdict is None)
            if a.verdict is not None:
                assert a.verdict.category == b.verdict.category
            assert a.confidence == b.confidence
            assert a.degraded_reasons == b.degraded_reasons
