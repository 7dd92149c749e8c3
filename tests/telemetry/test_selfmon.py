"""Sampled gauge history as TimeSeries (``forward_fill_series``), watched
by the repo's own detectors."""

import numpy as np
import pytest

from repro.telemetry import MetricsRegistry
from repro.timeseries import (
    LevelShiftDetector,
    SpikeDetector,
    TimeSeries,
    forward_fill_series,
)


class TestForwardFill:
    def test_fills_gaps_with_last_value(self):
        series = forward_fill_series({2: 5.0, 5: 7.0}, 0, 8, name="g")
        assert isinstance(series, TimeSeries)
        assert series.start == 0
        assert series.name == "g"
        np.testing.assert_allclose(
            series.values, [0.0, 0.0, 5.0, 5.0, 5.0, 7.0, 7.0, 7.0]
        )

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            forward_fill_series({}, 5, 5)


class TestWatchTheWatcher:
    """The repo's own detectors must run on sampled gauge history."""

    def test_detectors_flag_an_anomalous_gauge(self):
        reg = MetricsRegistry()
        lag = reg.gauge("broker_consumer_lag", topic="query_logs")
        history = {}
        rng = np.random.default_rng(7)
        # 300 s of healthy lag, then the consumer stalls and lag ramps up.
        for t in range(300):
            if t < 200:
                lag.set(5.0 + rng.normal(0, 0.5))
            else:
                lag.set(5.0 + (t - 200) * 3.0)
            history[t] = lag.value
        series = forward_fill_series(history, 0, 300, name="broker_consumer_lag")
        assert len(series) == 300
        detections = LevelShiftDetector().detect(series) + SpikeDetector().detect(
            series
        )
        assert detections, "the stall must register as an anomaly"
        assert max(d.start_index for d in detections) >= 190

    def test_healthy_gauge_stays_quiet(self):
        reg = MetricsRegistry()
        g = reg.gauge("steady")
        history = {}
        rng = np.random.default_rng(11)
        for t in range(120):
            g.set(10.0 + rng.normal(0, 0.1))
            history[t] = g.value
        series = forward_fill_series(history, 0, 120, name="steady")
        assert LevelShiftDetector().detect(series) == []
