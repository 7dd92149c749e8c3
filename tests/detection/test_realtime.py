"""Tests for the real-time streaming anomaly detector."""

import numpy as np
import pytest

from repro.collection import Broker, MetricsCollector
from repro.dbsim.monitor import InstanceMetrics
from repro.detection import RealtimeAnomalyDetector
from repro.timeseries import TimeSeries


def publish_metrics(broker, values, metric="active_session", start=0):
    metrics = InstanceMetrics(
        {metric: TimeSeries(np.asarray(values, float), start=start, name=metric)}
    )
    MetricsCollector(broker).collect(metrics)


def drain(detector):
    """Poll until the topic is exhausted, then evaluate once more at the
    end of the stream; every event, in order."""
    events = []
    while detector.consumer.lag > 0:
        events.extend(detector.poll())
    if detector.stream_time is not None:
        detector._last_evaluation = detector.stream_time
        events.extend(detector._evaluate(detector.stream_time))
    return events


def quiet_then_spike(n=1200, at=(900, 1000), seed=0, loc=10.0):
    values = loc + np.random.default_rng(seed).normal(size=n)
    values[at[0]:at[1]] += 80.0
    return values


class TestRealtimeDetection:
    def test_detects_spike_once(self):
        broker = Broker()
        publish_metrics(broker, quiet_then_spike())
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"), window_s=1200
        )
        events = drain(detector)
        fresh = [e for e in events if not e.is_update]
        assert len(fresh) >= 1
        anomaly = fresh[0].anomaly
        assert "active_session_anomaly" in anomaly.types
        assert 870 <= anomaly.start <= 930
        # No duplicate emission of the same anomaly.
        keys = [(e.anomaly.types, e.anomaly.start // 60) for e in fresh]
        assert len(keys) == len(set(keys))

    def test_quiet_stream_emits_nothing(self):
        broker = Broker()
        values = 10.0 + np.random.default_rng(1).normal(size=900)
        publish_metrics(broker, values)
        detector = RealtimeAnomalyDetector(broker.consumer("performance_metrics"))
        assert drain(detector) == []

    def test_incremental_polling_matches_stream_time(self):
        broker = Broker()
        publish_metrics(broker, quiet_then_spike(n=600, at=(400, 460)))
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"), window_s=600
        )
        while detector.consumer.lag > 0:
            detector.poll(max_messages=100)
        assert detector.stream_time == 599

    def test_ongoing_anomaly_update_events(self):
        # A level shift keeps growing; later evaluations emit updates.
        broker = Broker()
        n = 1400
        values = 10.0 + np.random.default_rng(2).normal(size=n)
        values[900:] += 60.0
        publish_metrics(broker, values)
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"),
            window_s=1200,
            evaluation_interval_s=60,
        )
        events = []
        while detector.consumer.lag > 0:
            # Live arrival: one message per stream second.
            events.extend(detector.poll(max_messages=60))
        assert any(not e.is_update for e in events)
        assert any(e.is_update for e in events)

    def test_multiple_metrics(self):
        broker = Broker()
        publish_metrics(broker, quiet_then_spike(n=900, at=(700, 760), seed=3))
        publish_metrics(
            broker, quiet_then_spike(n=900, at=(700, 760), seed=4, loc=40.0),
            metric="cpu_usage",
        )
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"), window_s=900
        )
        events = drain(detector)
        types = {t for e in events for t in e.anomaly.types}
        assert "active_session_anomaly" in types
        assert "cpu_anomaly" in types

    def test_invalid_parameters(self):
        broker = Broker()
        with pytest.raises(ValueError):
            RealtimeAnomalyDetector(broker.consumer("x"), window_s=0)

    def test_empty_topic(self):
        broker = Broker()
        detector = RealtimeAnomalyDetector(broker.consumer("performance_metrics"))
        assert detector.poll() == []
        assert detector.stream_time is None


class TestBufferGapHandling:
    def test_missing_samples_forward_filled(self):
        from repro.detection.realtime import _MetricBuffer

        buffer = _MetricBuffer(window_s=100)
        for t in range(0, 50):
            buffer.add(t, 10.0)
        buffer.add(60, 99.0)  # gap between 50 and 60
        series = buffer.series(now=60)
        assert series is not None
        assert series.start == 0
        # The gap carries the last value forward.
        assert series.values[55 - series.start] == 10.0
        assert series.values[-1] == 99.0

    def test_too_few_samples_returns_none(self):
        from repro.detection.realtime import _MetricBuffer

        buffer = _MetricBuffer(window_s=100)
        for t in range(3):
            buffer.add(t, 1.0)
        assert buffer.series(now=3) is None

    def test_trim_discards_old_samples(self):
        broker = Broker()
        publish_metrics(broker, np.ones(50))
        publish_metrics(broker, np.ones(50), metric="cpu_usage")
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"), window_s=10
        )
        drain(detector)
        # The detector itself forgets nothing; its owner bounds it.
        assert detector.window_snapshot(0, 50)["cpu_usage"][0] == (0, 1.0)
        assert detector.drop_before(39) == 2 * 39
        assert detector.drop_before(39) == 0
        for name, samples in detector.iter_buffer_samples():
            assert sorted(samples) == list(range(39, 50)), name


class TestPerInstanceIsolation:
    """One broker, two instance-keyed streams, one detector per instance."""

    @staticmethod
    def _publish(broker, instance_id, values):
        metrics = InstanceMetrics(
            {
                "active_session": TimeSeries(
                    np.asarray(values, float), start=0, name="active_session"
                )
            }
        )
        MetricsCollector(broker, instance_id=instance_id).collect(metrics)

    def test_anomaly_on_a_leaves_b_baseline_untouched(self):
        from repro.collection import METRIC_TOPIC, instance_topic

        spiky = quiet_then_spike(n=1200, at=(900, 1000), seed=7)
        quiet = 10.0 + np.random.default_rng(8).normal(size=1200)
        shared = Broker()
        self._publish(shared, "db-a", spiky)
        self._publish(shared, "db-b", quiet)
        # Control: db-b's stream alone on a private broker.
        solo = Broker()
        self._publish(solo, "db-b", quiet)

        topic_b = instance_topic(METRIC_TOPIC, "db-b")
        detector_a = RealtimeAnomalyDetector(
            shared.consumer(instance_topic(METRIC_TOPIC, "db-a")),
            window_s=1200,
            instance_id="db-a",
        )
        detector_b = RealtimeAnomalyDetector(
            shared.consumer(topic_b), window_s=1200, instance_id="db-b"
        )
        control = RealtimeAnomalyDetector(
            solo.consumer(topic_b), window_s=1200, instance_id="db-b"
        )

        events_a = drain(detector_a)
        fresh = [e for e in events_a if not e.is_update]
        assert fresh and all(e.instance_id == "db-a" for e in fresh)
        # db-b sees nothing, and its baseline buffer is sample-identical
        # to the control run that never shared a broker with db-a.
        assert drain(detector_b) == []
        assert drain(control) == []
        assert (
            detector_b._buffers["active_session"].samples
            == control._buffers["active_session"].samples
        )

    def test_detector_skips_misrouted_records(self):
        from repro.collection import METRIC_TOPIC, instance_topic

        # A collector misconfigured to write db-a records onto db-b's
        # topic: the instance-aware detector must drop them.
        broker = Broker()
        topic_b = instance_topic(METRIC_TOPIC, "db-b")
        MetricsCollector(broker, topic=topic_b, instance_id="db-a").collect(
            InstanceMetrics(
                {
                    "active_session": TimeSeries(
                        np.asarray(quiet_then_spike(), float),
                        start=0,
                        name="active_session",
                    )
                }
            )
        )
        detector = RealtimeAnomalyDetector(
            broker.consumer(topic_b), window_s=1200, instance_id="db-b"
        )
        assert drain(detector) == []
        assert detector._buffers == {}


def reference_buffers(messages):
    """Per-metric samples and stream time as the poll loop built them
    before ``iter_metric_series`` yielded lists: a ``lexsort`` of each
    block, numpy slices per metric, two ``tolist`` calls and one
    ``dict.update`` per metric, then the block's timestamp ``max``."""
    from repro.collection.blocks import validate_metric_block

    buffers, stream_time = {}, None
    for message in messages:
        block = message.value
        if validate_metric_block(block) is not None:
            continue
        data = block.data
        order = np.lexsort((data["timestamp"], data["metric"]))
        metric, ts, values = (data[f][order] for f in ("metric", "timestamp", "value"))
        cuts = np.flatnonzero(np.diff(metric)) + 1
        for lo, hi in zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [len(metric)]])):
            name = block.metrics[int(metric[lo])]
            buffers.setdefault(name, {}).update(zip(ts[lo:hi].tolist(), values[lo:hi].tolist()))
        block_max = int(data["timestamp"].max())
        stream_time = block_max if stream_time is None else max(stream_time, block_max)
    return buffers, stream_time


class TestMetricPollEquivalence:
    """The list-based metric poll against the numpy-slice loop it
    replaces: same samples, same insertion order of metrics and
    timestamps, same stream time."""

    @staticmethod
    def metrics(seed=5, seconds=150):
        rng = np.random.default_rng(seed)
        names = ("qps", "active_session", "cpu_usage", "iops")  # not sorted
        return InstanceMetrics(
            {n: TimeSeries(rng.uniform(0, 100, seconds), start=1000, name=n) for n in names}
        )

    @pytest.mark.parametrize(
        "fault, params",
        [
            ("clean", {}),
            ("duplicate", {"rate": 0.4}),
            ("clock_skew", {"rate": 0.3}),
            ("clock_skew", {"rate": 0.3, "skew_s": -2000}),  # some quarantined
            ("reorder", {"rate": 1.0}),
        ],
    )
    def test_chaos_streams_buffer_like_the_per_metric_loop(self, fault, params):
        from repro.chaos import FaultInjector, single_fault_plan
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        consumer = broker.consumer("performance_metrics")
        target = broker
        if fault != "clean":
            plan = single_fault_plan(fault, seed=3, **params)
            target = FaultInjector(plan, registry=registry).wrap_broker(broker)
        MetricsCollector(target).collect(self.metrics())
        if target is not broker:
            target.flush()
        messages = broker.read("performance_metrics", 0, 10**6)
        detector = RealtimeAnomalyDetector(consumer, registry=registry)
        detector.poll(max_messages=10**6)
        want, stream_time = reference_buffers(messages)
        got = {name: dict(samples) for name, samples in detector.iter_buffer_samples()}
        assert list(got) == list(want)
        for name in want:
            assert list(got[name].items()) == list(want[name].items())
        assert detector.stream_time == stream_time

    def test_unsorted_rows_with_repeated_timestamps(self):
        from repro.collection.blocks import METRIC_BLOCK_DTYPE, MetricBlock

        rows = [(1, 12, 1.0), (0, 11, 2.0), (1, 10, 3.0), (0, 11, 4.0), (2, 9, 5.0), (1, 12, 6.0)]
        block = MetricBlock(("b", "a", "c"), np.array(rows, dtype=METRIC_BLOCK_DTYPE))
        broker = Broker()
        detector = RealtimeAnomalyDetector(broker.consumer("m"))
        broker.publish_block("m", block)
        broker.publish_block("m", block.with_rows(block.data[::-1].copy()))
        messages = broker.read("m", 0, 10)
        detector.poll()
        want, stream_time = reference_buffers(messages)
        got = {name: dict(samples) for name, samples in detector.iter_buffer_samples()}
        assert list(got) == list(want) == ["b", "a", "c"]
        for name in want:
            assert list(got[name].items()) == list(want[name].items())
        assert detector.stream_time == stream_time == 12
