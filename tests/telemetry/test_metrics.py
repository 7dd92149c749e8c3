"""Registry semantics and export formats."""

import json
import re

import pytest

from repro.telemetry import (
    DEFAULT_COUNT_BUCKETS,
    BoundInstruments,
    MetricsRegistry,
    labeled_name,
    render_summary,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_same_name_and_labels_return_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", topic="a")
        b = reg.counter("x_total", topic="a")
        other = reg.counter("x_total", topic="b")
        assert a is b
        assert a is not other

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x_total").inc(-1)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name!")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("queue_depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0


class TestHistogram:
    def test_bucket_assignment_le_semantics(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.1)   # on the bound → le=0.1
        h.observe(0.5)   # le=1.0
        h.observe(5.0)   # +Inf overflow
        cumulative = dict(h.cumulative())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 2
        assert cumulative[float("inf")] == 3
        assert h.count == 3
        assert h.sum == pytest.approx(5.6)
        assert h.mean == pytest.approx(5.6 / 3)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0))

    def test_count_buckets_capture_zero(self):
        h = MetricsRegistry().histogram("batch", buckets=DEFAULT_COUNT_BUCKETS)
        h.observe(0)
        assert dict(h.cumulative())[0] == 1


class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("msgs_total", help="Messages.", topic="query_logs").inc(7)
        reg.gauge("lag", topic="query_logs", consumer="query_logs/0").set(3)
        reg.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.25)
        return reg

    def test_json_snapshot_round_trip(self):
        reg = self._populated()
        snap = reg.snapshot()
        assert snap == json.loads(json.dumps(snap))
        (counter,) = snap["counters"]
        assert counter == {
            "name": "msgs_total",
            "labels": {"topic": "query_logs"},
            "value": 7.0,
        }
        (hist,) = snap["histograms"]
        assert hist["count"] == 1
        assert hist["buckets"][-1] == ["+Inf", 1]

    def test_prometheus_exposition_is_well_formed(self):
        text = self._populated().render_prometheus()
        assert text.endswith("\n")
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.+eE\-]+$'
        )
        for line in text.strip().splitlines():
            assert line.startswith("#") or sample_re.match(line), line
        assert "# TYPE msgs_total counter" in text
        assert '# HELP msgs_total Messages.' in text
        assert 'msgs_total{topic="query_logs"} 7' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total", q='say "hi"\nplease').inc()
        text = reg.render_prometheus()
        assert r'q="say \"hi\"\nplease"' in text

    def test_summary_mentions_every_series(self):
        reg = self._populated()
        text = render_summary(reg)
        assert "msgs_total{topic=query_logs}" in text
        assert "lag{consumer=query_logs/0,topic=query_logs}" in text
        assert "latency_seconds" in text

    def test_labeled_name_no_labels(self):
        assert labeled_name("x") == "x"

    def test_reset_clears_everything(self):
        reg = self._populated()
        reg.reset()
        assert reg.snapshot() == {"counters": [], "gauges": [], "histograms": []}
        assert reg.names() == []


class TestBoundInstruments:
    def test_binds_once_per_key(self):
        reg = MetricsRegistry()
        bound, made = BoundInstruments(), []

        def make(topic):
            made.append(topic)
            return reg.counter("msgs_total", topic=topic)

        for _ in range(3):
            bound.get(reg, "a", make, "a").inc()
        bound.get(reg, "b", make, "b").inc()
        assert made == ["a", "b"]
        assert reg.get("msgs_total", topic="a").value == 3

    def test_rebinds_after_reset_and_for_another_registry(self):
        reg, other = MetricsRegistry(), MetricsRegistry()
        bound = BoundInstruments()
        bound.get(reg, "a", lambda: reg.counter("msgs_total")).inc()
        reg.reset()
        bound.get(reg, "a", lambda: reg.counter("msgs_total")).inc()
        assert reg.get("msgs_total").value == 1
        bound.get(other, "a", lambda: other.counter("msgs_total")).inc()
        assert other.get("msgs_total").value == 1
        assert reg.get("msgs_total").value == 1
