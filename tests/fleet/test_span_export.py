"""Cross-process span export: worker envelopes, pool merge, crash loss."""

import os

from repro.fleet import BlockFeed, WorkerPool, WorkItem, execute_work_item
from repro.chaos import FaultPlan, FaultSpec
from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry.tracing import TraceContext
from tests.fleet.conftest import ANOMALOUS, tiny_feed


def _counter(registry, name, **labels):
    instrument = registry.get(name, **labels)
    return 0 if instrument is None else instrument.value


def _tiny_feed(instance_id="db-t", trace=None):
    feed = tiny_feed(instance_id)
    feed.trace = trace
    return feed


class TestWorkerEnvelope:
    def test_envelope_carries_counts_spans_and_telemetry(self):
        export = execute_work_item(WorkItem(feed=_tiny_feed()))
        assert set(export) == {"counts", "spans", "telemetry"}
        assert export["counts"] == {"db-t": 0}
        assert isinstance(export["spans"], list)
        snap = export["telemetry"]
        assert any(
            e["name"] == "pipeline_lag_seconds"
            and e["labels"].get("stage") == "dispatch"
            for e in snap["histograms"]
        )

    def test_block_traces_parent_worker_spans(self, fleet_stream):
        # An anomalous instance actually diagnoses, so spans exist.  The
        # collectors' ``publish_block`` stamped every block with its own
        # span's context (existing stamps win on the worker's replay);
        # the worker's diagnosis spans must join one of those traces —
        # the block context beats the feed-level fallback.
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, ANOMALOUS[0])
        block_contexts = {}
        for _, block in feed.iter_blocks():
            if block.trace is not None:
                block_contexts[block.trace.span_id] = block.trace.trace_id
        assert block_contexts, "published blocks should carry trace contexts"
        export = execute_work_item(WorkItem(feed=feed))
        roots = [s for s in export["spans"] if s["name"] == "service.diagnose"]
        assert roots
        for span in roots:
            attrs = span["attrs"]
            assert attrs["process"] == os.getpid()
            parent = attrs["parent_span_id"]
            assert block_contexts[parent] == attrs["trace_id"]

    def test_unstamped_stream_still_yields_traced_spans(self, fleet_stream):
        # Traceless blocks get stamped by the worker's own replay
        # publish, so diagnosis spans still join a fully linked (locally
        # minted) trace.
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, ANOMALOUS[0]).unstamped()
        export = execute_work_item(WorkItem(feed=feed))
        roots = [s for s in export["spans"] if s["name"] == "service.diagnose"]
        assert roots
        for span in roots:
            attrs = span["attrs"]
            assert attrs["trace_id"]
            assert attrs["parent_span_id"]
            assert attrs["process"] == os.getpid()


class TestPoolMerge:
    def test_merge_export_adopts_spans_and_telemetry(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, ANOMALOUS[0])
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = WorkerPool(processes=1, registry=registry, tracer=tracer)
        export = execute_work_item(WorkItem(feed=feed))
        assert export["spans"]
        pool._merge_export(export)
        assert len(tracer.roots) == len(export["spans"])
        assert _counter(registry, "fleet_spans_imported_total") == len(
            export["spans"]
        )
        # The worker's dispatch-lag histogram now lives in the parent.
        assert registry.get(
            "pipeline_lag_seconds", stage="dispatch", instance=ANOMALOUS[0]
        ) is not None

    def test_merge_export_tolerates_garbage(self):
        registry = MetricsRegistry()
        pool = WorkerPool(processes=1, registry=registry, tracer=Tracer())
        pool._merge_export(None)
        pool._merge_export("broken")
        pool._merge_export({"spans": "nope", "telemetry": 7})
        assert _counter(registry, "fleet_spans_imported_total") == 0

    def test_pool_run_imports_worker_spans(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, ANOMALOUS[0])
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = WorkerPool(processes=2, registry=registry, tracer=tracer)
        counts = pool.run([WorkItem(feed=feed)])
        assert counts[ANOMALOUS[0]] >= 1
        assert tracer.roots, "worker spans should merge into the parent tracer"
        # The spans really crossed a process boundary.
        procs = {s.attrs.get("process") for s in tracer.roots}
        assert procs and os.getpid() not in procs

    def test_inline_run_merges_spans_and_telemetry(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, ANOMALOUS[0])
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = WorkerPool(processes=1, registry=registry, tracer=tracer)
        counts = pool.run([WorkItem(feed=feed)])
        assert counts[ANOMALOUS[0]] >= 1
        assert _counter(registry, "fleet_spans_imported_total") > 0
        assert len(tracer.roots) == _counter(registry, "fleet_spans_imported_total")
        # No worker process: the item ran here.
        assert {s.attrs.get("process") for s in tracer.roots} == {os.getpid()}
        # The item's private registry was folded into the pool's.
        assert registry.get(
            "pipeline_lag_seconds", stage="dispatch", instance=ANOMALOUS[0]
        ) is not None
        assert _counter(registry, "fleet_work_items_total", status="completed") == 1


class TestCrashAccounting:
    def test_flush_counts_loss_and_links_synthetic_span(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = WorkerPool(processes=1, registry=registry, tracer=tracer)
        ctx = TraceContext(trace_id="a" * 16, span_id="b" * 16, process=1)
        item = WorkItem(feed=_tiny_feed(trace=ctx), shard_key="shard-03")
        pool._flush_crashed_item(item, exitcode=17)
        assert _counter(
            registry, "span_export_dropped_total", instance="db-t"
        ) == 1
        [span] = tracer.roots
        assert span.name == "fleet.worker_crash"
        assert span.attrs["status"] == "error"
        assert span.attrs["trace_id"] == ctx.trace_id
        assert span.attrs["parent_span_id"] == ctx.span_id
        assert span.attrs["shard"] == "shard-03"

    def test_flush_without_trace_still_counts(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = WorkerPool(processes=1, registry=registry, tracer=tracer)
        pool._flush_crashed_item(WorkItem(feed=_tiny_feed()), exitcode=1)
        assert _counter(
            registry, "span_export_dropped_total", instance="db-t"
        ) == 1
        [span] = tracer.roots
        assert "trace_id" not in span.attrs

    def test_real_crash_adopts_one_linked_synthetic_span(self):
        """A chaos ``worker_crash`` with ``processes=2`` kills a real child
        process: the parent sees EOF and flushes one synthetic span with
        the child's exit code, linked to the feed's trace context."""
        plan = FaultPlan(
            name="crash-once",
            seed=11,
            specs=(
                FaultSpec(kind="worker_crash", rate=1.0, params={"max_crashes": 1}),
            ),
        )
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = WorkerPool(processes=2, registry=registry, tracer=tracer)
        ctx = TraceContext(trace_id="c" * 16, span_id="d" * 16, process=1)
        item = WorkItem(
            feed=_tiny_feed(trace=ctx), fault_plan=plan, shard_key="shard-00"
        )
        assert pool.run([item]) == {"db-t": 0}
        [span] = [s for s in tracer.roots if s.name == "fleet.worker_crash"]
        assert span.attrs["exitcode"] == 17
        assert span.attrs["trace_id"] == ctx.trace_id
        assert span.attrs["parent_span_id"] == ctx.span_id
        assert span.attrs["shard"] == "shard-00"
        assert _counter(
            registry, "span_export_dropped_total", instance="db-t"
        ) == 1
