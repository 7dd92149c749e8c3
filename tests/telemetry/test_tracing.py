"""Span nesting, timing, retention, and the registry hookup."""

import os
import pickle
import time

from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry.tracing import TraceContext, set_trace_propagation


class TestSpans:
    def test_elapsed_measured(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            time.sleep(0.002)
        assert span.elapsed is not None
        assert span.elapsed >= 0.002

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        root = tracer.last_root()
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        # Pre-order walk with depths.
        walked = [(d, s.name) for d, s in root.walk()]
        assert walked == [
            (0, "root"), (1, "child_a"), (2, "grandchild"), (1, "child_b"),
        ]

    def test_sequential_roots_both_retained(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_root_retention_bounded(self):
        tracer = Tracer(max_roots=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots] == ["s2", "s3", "s4"]

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None


class TestRegistryIntegration:
    def test_finished_spans_feed_the_histogram(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)
        with tracer.span("stage"):
            pass
        with tracer.span("stage"):
            pass
        hist = reg.get(Tracer.SPAN_METRIC, span="stage")
        assert hist is not None
        assert hist.count == 2
        assert hist.sum >= 0.0

    def test_span_histograms_follow_a_registry_reset(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)
        with tracer.span("stage"):
            pass
        reg.reset()
        with tracer.span("stage"):
            pass
        assert reg.get(Tracer.SPAN_METRIC, span="stage").count == 1

    def test_disabled_tracer_still_times_but_stays_silent(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg, enabled=False)
        with tracer.span("stage") as span:
            pass
        assert span.elapsed is not None
        assert tracer.roots == []
        assert Tracer.SPAN_METRIC not in reg


class TestErrorSpans:
    def test_exception_marks_status_and_keeps_elapsed(self):
        tracer = Tracer()
        try:
            with tracer.span("work") as span:
                time.sleep(0.002)
                raise ValueError("boom")
        except ValueError:
            pass
        assert span.elapsed is not None
        assert span.elapsed >= 0.002
        assert span.attrs["status"] == "error"
        assert span.attrs["error"] == "ValueError"

    def test_exception_propagates_out_of_the_span(self):
        tracer = Tracer()
        try:
            with tracer.span("work"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        else:  # pragma: no cover - the raise must not be swallowed
            raise AssertionError("span swallowed the exception")

    def test_error_span_still_feeds_histogram_and_counts(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)
        try:
            with tracer.span("stage"):
                raise KeyError("x")
        except KeyError:
            pass
        hist = reg.get(Tracer.SPAN_METRIC, span="stage")
        assert hist is not None and hist.count == 1
        errors = reg.get("span_errors_total", span="stage")
        assert errors is not None and errors.value == 1

    def test_clean_span_does_not_count_an_error(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)
        with tracer.span("stage") as span:
            pass
        assert "status" not in span.attrs
        assert reg.get("span_errors_total", span="stage") is None

    def test_inner_error_does_not_mark_the_caught_outer(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            try:
                with tracer.span("inner") as inner:
                    raise ValueError("boom")
            except ValueError:
                pass
        assert inner.attrs.get("status") == "error"
        assert "status" not in outer.attrs
        root = tracer.last_root()
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]

    def test_error_annotation_renders_in_the_tree(self):
        tracer = Tracer()
        try:
            with tracer.span("stage"):
                raise ValueError("boom")
        except ValueError:
            pass
        text = tracer.format_tree()
        assert "status=error" in text
        assert "error=ValueError" in text

    def test_disabled_tracer_marks_error_spans_too(self):
        tracer = Tracer(enabled=False)
        try:
            with tracer.span("stage") as span:
                raise ValueError("boom")
        except ValueError:
            pass
        assert span.elapsed is not None
        assert span.attrs["status"] == "error"


class TestFormatTree:
    def test_renders_names_and_durations(self):
        tracer = Tracer()
        with tracer.span("analyze", case="c1"):
            with tracer.span("ranking"):
                pass
        text = tracer.format_tree()
        lines = text.splitlines()
        assert lines[0].startswith("analyze")
        assert "case=c1" in lines[0]
        assert lines[1].startswith("  ranking")
        assert "ms" in text or " s" in text

    def test_empty_tracer_renders_placeholder(self):
        assert "no finished spans" in Tracer().format_tree()


class TestTraceContextPropagation:
    def test_root_spans_carry_distributed_identity(self):
        tracer = Tracer()
        with tracer.span("service.diagnose") as span:
            pass
        assert isinstance(span.attrs["trace_id"], str)
        assert isinstance(span.attrs["span_id"], str)
        assert span.attrs["process"] == os.getpid()
        assert "parent_span_id" not in span.attrs

    def test_remote_parent_links_new_roots(self):
        tracer = Tracer()
        ctx = TraceContext(trace_id="t" * 16, span_id="s" * 16, process=1)
        tracer.set_remote_parent(ctx)
        with tracer.span("service.diagnose") as span:
            pass
        assert span.attrs["trace_id"] == ctx.trace_id
        assert span.attrs["parent_span_id"] == ctx.span_id
        assert span.attrs["span_id"] != ctx.span_id

    def test_context_for_nested_span_joins_roots_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("publish") as inner:
                ctx = tracer.context_for(inner)
        assert ctx is not None
        assert ctx.trace_id == root.attrs["trace_id"]
        assert ctx.span_id == inner.attrs["span_id"]
        assert ctx.process == os.getpid()

    def test_context_pickles_by_value(self):
        # Blocks carry their context to shard workers by pickling.
        ctx = TraceContext(trace_id="t" * 16, span_id="s" * 16, process=42)
        copy = pickle.loads(pickle.dumps(ctx))
        assert copy == ctx and hash(copy) == hash(ctx)
        assert copy.process == 42

    def test_propagation_toggle_suppresses_identity(self):
        set_trace_propagation(False)
        try:
            tracer = Tracer()
            with tracer.span("quiet") as span:
                assert tracer.context_for(span) is None
            assert "trace_id" not in span.attrs
        finally:
            set_trace_propagation(True)


class TestCrossProcessExport:
    def test_export_and_adopt_round_trip(self):
        src = Tracer()
        with src.span("service.diagnose"):
            with src.span("pinsql.analyze"):
                pass
        dst = Tracer()
        payloads = src.export_roots(clear=True)
        assert src.roots == []
        assert dst.adopt(payloads) == 1
        [root] = dst.roots
        assert root.name == "service.diagnose"
        assert root.children[0].name == "pinsql.analyze"
        assert root.attrs["trace_id"]

    def test_adopt_skips_malformed_payloads(self):
        dst = Tracer()
        good = {"name": "ok", "elapsed": 0.1, "attrs": {}, "children": []}
        assert dst.adopt([{"nope": 1}, "junk", good]) == 1
        assert dst.last_root().name == "ok"

    def test_adopt_does_not_reobserve_histograms(self):
        registry = MetricsRegistry()
        dst = Tracer(registry=registry)
        src = Tracer()
        with src.span("work"):
            pass
        dst.adopt(src.export_roots())
        assert registry.snapshot()["histograms"] == []


class TestLabelPropagation:
    def test_child_spans_observe_with_tracer_labels(self):
        # The extra-labels path: a fleet engine's tracer stamps its
        # instance label on EVERY span observation, children included,
        # so per-stage latency histograms stay separable per instance.
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, labels={"instance": "db-09"})
        with tracer.span("service.diagnose"):
            with tracer.span("pinsql.analyze"):
                pass
        for span_name in ("service.diagnose", "pinsql.analyze"):
            hist = registry.get(
                "span_duration_seconds", span=span_name, instance="db-09"
            )
            assert hist is not None and hist.count == 1

    def test_error_counter_carries_tracer_labels(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, labels={"instance": "db-09"})
        try:
            with tracer.span("service.diagnose"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        counter = registry.get(
            "span_errors_total", span="service.diagnose", instance="db-09"
        )
        assert counter is not None and counter.value == 1
