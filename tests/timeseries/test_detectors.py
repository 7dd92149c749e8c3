"""Tests for spike / level-shift / Tukey detectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries import (
    FeatureKind,
    LevelShiftDetector,
    SpikeDetector,
    TimeSeries,
    TukeyDetector,
    detect_anomalous_features,
)


def _noise(n, seed=0, scale=1.0, loc=10.0):
    rng = np.random.default_rng(seed)
    return loc + scale * rng.normal(size=n)


class TestSpikeDetector:
    def test_detects_upward_spike(self):
        v = _noise(600)
        v[300:320] += 40.0
        dets = SpikeDetector().detect(v)
        ups = [d for d in dets if d.kind is FeatureKind.SPIKE_UP]
        assert len(ups) == 1
        assert 295 <= ups[0].start_index <= 305
        assert 315 <= ups[0].end_index <= 325

    def test_detects_downward_spike(self):
        v = _noise(600, loc=100.0)
        v[100:110] -= 80.0
        dets = SpikeDetector().detect(v)
        assert any(d.kind is FeatureKind.SPIKE_DOWN for d in dets)

    def test_flat_series_no_detection(self):
        assert SpikeDetector().detect(np.full(100, 5.0)) == []

    def test_unrecovered_tail_not_a_spike(self):
        v = _noise(600)
        v[550:] += 40.0  # extends to window end: level shift, not spike
        dets = SpikeDetector().detect(v)
        assert all(d.kind is not FeatureKind.SPIKE_UP for d in dets)

    def test_short_series_no_crash(self):
        assert SpikeDetector().detect(np.array([1.0, 2.0])) == []

    def test_min_length_filters_blips(self):
        v = _noise(300)
        v[100] += 50.0  # single-sample blip
        dets = SpikeDetector(min_length=3).detect(v)
        assert dets == []

    def test_severity_positive(self):
        v = _noise(300)
        v[100:105] += 30.0
        dets = SpikeDetector().detect(v)
        assert all(d.severity > 0 for d in dets)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            SpikeDetector(threshold=0)


class TestLevelShiftDetector:
    def test_detects_upward_shift(self):
        v = np.concatenate([_noise(300, seed=1), _noise(300, seed=2, loc=50.0)])
        dets = LevelShiftDetector().detect(v)
        assert len(dets) == 1
        d = dets[0]
        assert d.kind is FeatureKind.LEVEL_SHIFT_UP
        assert 280 <= d.start_index <= 320

    def test_detects_downward_shift(self):
        v = np.concatenate([_noise(300, seed=1, loc=50.0), _noise(300, seed=2, loc=10.0)])
        dets = LevelShiftDetector().detect(v)
        assert len(dets) == 1
        assert dets[0].kind is FeatureKind.LEVEL_SHIFT_DOWN

    def test_spike_is_not_a_level_shift(self):
        v = _noise(600, seed=3)
        v[300:310] += 40.0
        assert LevelShiftDetector().detect(v) == []

    def test_flat_series_no_detection(self):
        assert LevelShiftDetector().detect(np.full(200, 3.0)) == []

    def test_too_short_series(self):
        assert LevelShiftDetector().detect(np.array([1.0, 2.0, 3.0])) == []


class TestTukeyDetector:
    def test_has_anomaly_upward_only(self):
        v = _noise(500, seed=5, loc=100.0)
        v[450] -= 90.0  # downward outlier inside the window
        det = TukeyDetector()
        assert not det.has_anomaly_vs_baseline(v, (440, 460))
        v[455] += 180.0  # upward outlier inside the window
        assert det.has_anomaly_vs_baseline(v, (440, 460))

    def test_window_restriction(self):
        v = _noise(500, seed=6)
        v[400] += 100.0
        det = TukeyDetector()
        assert det.has_anomaly_vs_baseline(v, (390, 410))
        # The spike lies after the window, so neither fences nor window see it.
        assert not det.has_anomaly_vs_baseline(v, (200, 300))

    def test_empty_series(self):
        det = TukeyDetector()
        assert not det.has_anomaly_vs_baseline(np.array([]), (0, 10))
        assert det.rows_vs_baseline(np.empty((2, 0)), (0, 10)).tolist() == [False, False]

    def test_empty_window(self):
        v = _noise(100)
        v[50] += 100.0
        assert not TukeyDetector().has_anomaly_vs_baseline(v, (50, 50))
        assert not TukeyDetector().has_anomaly_vs_baseline(v, (60, 40))

    def test_constant_series_flags_deviants(self):
        v = np.full(100, 7.0)
        v[10] = 8.0
        det = TukeyDetector()
        assert det.has_anomaly_vs_baseline(v, (8, 12))
        assert not det.has_anomaly_vs_baseline(v, (20, 30))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            TukeyDetector(k=0)


def _baseline_rule(values, window, k=3.0):
    """Tukey's baseline rule on one series, written out per series."""
    lo_i, hi_i = max(0, window[0]), min(len(values), window[1])
    if hi_i <= lo_i:
        return False
    baseline, target = values[:lo_i], values[lo_i:hi_i]
    if len(baseline) < 4:
        # Whole-series fences; a degenerate series is judged two-sided.
        q1, q3 = np.percentile(values, [25, 75])
        if q3 - q1 < 1e-9:
            center = float(np.median(values))
            tol = max(1e-9, abs(center) * 1e-6)
            return bool((np.abs(target - center) > tol + k * 1e-9).any())
        return bool((target > q3 + k * (q3 - q1)).any())
    q1, q3 = np.percentile(baseline, [25, 75])
    if q3 - q1 < 1e-9:
        center = float(np.median(baseline))
        tol = max(1e-9, abs(center) * 1e-6)
        return bool((target > center + tol).any())
    return bool((target > q3 + k * (q3 - q1)).any())


@st.composite
def _matrices(draw):
    """Small matrices mixing noisy, spiky, constant and near-constant rows."""
    rows, length = draw(st.integers(1, 6)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.empty((rows, length))
    for r in range(rows):
        kind = draw(st.sampled_from(["noise", "counts", "constant", "one_off"]))
        if kind == "noise":
            matrix[r] = rng.normal(10.0, 3.0, length)
        elif kind == "counts":
            matrix[r] = rng.integers(0, 4, length)
        else:
            matrix[r] = draw(st.sampled_from([0.0, 5.0, -2.5, 1e7]))
            if kind == "one_off" and length:
                matrix[r, rng.integers(length)] += draw(st.sampled_from([-1.0, 1e-7, 3.0, 50.0]))
    lo = draw(st.integers(-3, length + 3))
    return matrix, (lo, draw(st.integers(lo - 2, length + 3)))


class TestTukeyRowsVsBaseline:
    @given(_matrices(), st.sampled_from([1.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_property_rows_equal_the_per_series_rule(self, case, k):
        # Covers constant rows, baselines under 4 points (whole-series
        # fences), windows clipped at either end and empty windows.
        matrix, window = case
        det = TukeyDetector(k=k)
        expected = [_baseline_rule(row, window, k) for row in matrix]
        np.testing.assert_array_equal(det.rows_vs_baseline(matrix, window), expected)
        assert [det.has_anomaly_vs_baseline(row, window) for row in matrix] == expected
        if matrix.shape[1]:
            # Row-wise quartiles and medians are the one-row calls, bit for bit.
            q = np.percentile(matrix, [25, 75], axis=1)
            per_row = np.array([np.percentile(row, [25, 75]) for row in matrix]).T
            assert q.tobytes() == per_row.tobytes()
            medians = np.array([np.median(row) for row in matrix])
            assert np.median(matrix, axis=1).tobytes() == medians.tobytes()

    def test_short_baseline_uses_two_sided_whole_series_mask(self):
        # Three baseline points: a constant series with a dip inside the
        # window is flagged, as the whole-series mask flags deviants.
        v = np.full(10, 7.0)
        v[5] = 6.0
        assert TukeyDetector().has_anomaly_vs_baseline(v, (3, 8))
        assert not TukeyDetector().has_anomaly_vs_baseline(v, (6, 8))

    def test_degenerate_baseline_flags_only_rises(self):
        v = np.full(10, 7.0)
        v[6] = 6.0
        det = TukeyDetector()
        assert not det.has_anomaly_vs_baseline(v, (5, 10))
        v[7] = 8.0
        assert det.has_anomaly_vs_baseline(v, (5, 10))

    def test_window_is_clipped_to_the_series(self):
        v = _noise(500, seed=6)
        v[400] += 100.0
        det = TukeyDetector()
        assert det.has_anomaly_vs_baseline(v, (390, 10_000))
        assert not det.has_anomaly_vs_baseline(v, (-50, 100))

    def test_empty_window_and_empty_matrix(self):
        det = TukeyDetector()
        assert det.rows_vs_baseline(np.ones((3, 8)), (8, 12)).tolist() == [False] * 3
        assert det.rows_vs_baseline(np.ones((0, 8)), (4, 6)).shape == (0,)


class TestDetectAnomalousFeatures:
    def test_feature_timestamps_on_series_axis(self):
        v = _noise(600, seed=8)
        v[300:320] += 40.0
        series = TimeSeries(v, start=10_000, name="active_session")
        feats = detect_anomalous_features("active_session", series)
        assert len(feats) >= 1
        f = feats[0]
        assert f.metric == "active_session"
        assert 10_290 <= f.start <= 10_310
        assert f.duration > 0

    def test_pattern_matching(self):
        v = _noise(600, seed=9)
        v[300:320] += 40.0
        series = TimeSeries(v, start=0)
        feats = detect_anomalous_features("cpu_usage", series)
        spike = next(f for f in feats if f.kind.is_spike)
        assert spike.matches("cpu_usage.spike")
        assert spike.matches("cpu_usage.spike_up")
        assert spike.matches("cpu_usage.*")
        assert spike.matches("cpu_usage")
        assert not spike.matches("cpu_usage.level_shift")
        assert not spike.matches("iops_usage.spike")

    def test_no_features_on_quiet_series(self):
        series = TimeSeries(_noise(600, seed=10), start=0)
        assert detect_anomalous_features("m", series) == []
