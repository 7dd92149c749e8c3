"""Cross-process span export: worker envelopes, pool merge, crash loss."""

import os

from repro.fleet import (
    PersistentWorkerPool,
    WorkItem,
    block_feed_from_broker,
    execute_work_item,
)
from repro.fleet.workers import columnarize_feed
from repro.fleet.sharded import InstanceFeed
from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry.tracing import TraceContext
from tests.fleet.conftest import ANOMALOUS


def _counter(registry, name, **labels):
    instrument = registry.get(name, **labels)
    return 0 if instrument is None else instrument.value


def _tiny_feed(instance_id="db-t", trace=None):
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
    feed = columnarize_feed(
        InstanceFeed(
            instance_id=instance_id, query_records=records, metric_records=metrics
        )
    )
    if trace is not None:
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
        # An anomalous instance actually diagnoses, so spans exist.
        # Re-publish the stream's blocks through a parent-process broker
        # (``publish_block`` stamps unstamped blocks with its own span's
        # context; existing stamps win on the worker's replay), then
        # assert the worker's diagnosis spans join one of those traces —
        # the block context beats the feed-level fallback.
        from repro.collection.blocks import decode_block
        from repro.collection.collector import METRIC_TOPIC, QUERY_TOPIC
        from repro.collection.stream import Broker, instance_topic

        broker, _, _ = fleet_stream
        raw = block_feed_from_broker(broker, ANOMALOUS[0])
        parent = Broker()
        for topic, payloads in (
            (QUERY_TOPIC, raw.query_payloads),
            (METRIC_TOPIC, raw.metric_payloads),
        ):
            for payload in payloads:
                parent.publish_block(
                    instance_topic(topic, ANOMALOUS[0]), decode_block(payload)
                )
        feed = block_feed_from_broker(parent, ANOMALOUS[0])
        block_contexts = {}
        for payload in feed.query_payloads + feed.metric_payloads:
            block = decode_block(payload)
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
        # Legacy records columnarise into traceless blocks; the worker's
        # own replay publish stamps them, so diagnosis spans still join
        # a fully linked (locally minted) trace.
        broker, _, _ = fleet_stream
        feed = block_feed_from_broker(broker, ANOMALOUS[0])
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
        feed = block_feed_from_broker(broker, ANOMALOUS[0])
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = PersistentWorkerPool(processes=1, registry=registry, tracer=tracer)
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
        pool = PersistentWorkerPool(processes=1, registry=registry, tracer=Tracer())
        pool._merge_export(None)
        pool._merge_export("broken")
        pool._merge_export({"spans": "nope", "telemetry": 7})
        assert _counter(registry, "fleet_spans_imported_total") == 0

    def test_pool_run_imports_worker_spans(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = block_feed_from_broker(broker, ANOMALOUS[0])
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = PersistentWorkerPool(processes=2, registry=registry, tracer=tracer)
        counts = pool.run([WorkItem(feed=feed)])
        assert counts[ANOMALOUS[0]] >= 1
        assert tracer.roots, "worker spans should merge into the parent tracer"
        # The spans really crossed a process boundary.
        procs = {s.attrs.get("process") for s in tracer.roots}
        assert procs and os.getpid() not in procs

    def test_inline_run_merges_spans_and_telemetry(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = block_feed_from_broker(broker, ANOMALOUS[0])
        registry = MetricsRegistry()
        tracer = Tracer()
        pool = PersistentWorkerPool(processes=1, registry=registry, tracer=tracer)
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
        pool = PersistentWorkerPool(processes=1, registry=registry, tracer=tracer)
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
        pool = PersistentWorkerPool(processes=1, registry=registry, tracer=tracer)
        pool._flush_crashed_item(WorkItem(feed=_tiny_feed()), exitcode=1)
        assert _counter(
            registry, "span_export_dropped_total", instance="db-t"
        ) == 1
        [span] = tracer.roots
        assert "trace_id" not in span.attrs
