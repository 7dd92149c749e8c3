"""Tests for Pearson / weighted Pearson / sigmoid weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.timeseries import (
    TimeSeries,
    pearson,
    pearson_rows,
    sigmoid_anomaly_weights,
    weighted_pearson,
    weighted_pearson_rows,
)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_series_yields_zero(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    def test_single_sample_yields_zero(self):
        assert pearson([1.0], [2.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1.0, 2.0], [1.0])

    def test_accepts_timeseries(self):
        a = TimeSeries(np.arange(5.0))
        b = TimeSeries(np.arange(5.0) * 3)
        assert pearson(a, b) == pytest.approx(1.0)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=100)
        y = 0.5 * x + rng.normal(size=100)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    @given(
        hnp.arrays(np.float64, st.integers(2, 50),
                   elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, st.integers(2, 50),
                   elements=st.floats(-1e6, 1e6)),
    )
    @settings(max_examples=60)
    def test_property_bounded(self, x, y):
        n = min(len(x), len(y))
        r = pearson(x[:n], y[:n])
        assert -1.0 <= r <= 1.0

    @given(hnp.arrays(np.float64, st.integers(2, 50),
                      elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=60)
    def test_property_symmetric(self, x):
        y = x[::-1].copy()
        assert pearson(x, y) == pytest.approx(pearson(y, x))


class TestWeightedPearson:
    def test_uniform_weights_match_plain_pearson(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        w = np.ones(60)
        assert weighted_pearson(x, y, w) == pytest.approx(pearson(x, y))

    def test_indicator_weights_match_window_pearson(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        w = np.zeros(100)
        w[30:70] = 1.0
        expected = pearson(x[30:70], y[30:70])
        assert weighted_pearson(x, y, w) == pytest.approx(expected)

    def test_zero_weights_yield_zero(self):
        assert weighted_pearson([1.0, 2.0], [3.0, 4.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_pearson([1.0, 2.0], [3.0, 4.0], [1.0])

    def test_emphasis_changes_result(self):
        # x correlates with y only in the second half; weighting that
        # half must raise the coefficient.
        n = 100
        rng = np.random.default_rng(5)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        y[50:] = x[50:] + 0.01 * rng.normal(size=50)
        w_uniform = np.ones(n)
        w_focus = np.zeros(n)
        w_focus[50:] = 1.0
        assert weighted_pearson(x, y, w_focus) > weighted_pearson(x, y, w_uniform)

    @given(
        st.integers(5, 40),
        st.integers(0, 1_000),
    )
    @settings(max_examples=40)
    def test_property_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        w = rng.uniform(0, 1, size=n)
        r = weighted_pearson(x, y, w)
        assert -1.0 <= r <= 1.0


class TestRowwise:
    def _rows(self, n, seed):
        rng = np.random.default_rng(seed)
        return np.vstack([
            rng.normal(size=n),
            np.full(n, 3.0),
            np.zeros(n),
            np.linspace(0.0, 1.0, n),
        ]), rng.normal(size=n), rng.uniform(0, 1, size=n)

    @given(st.integers(2, 60), st.integers(0, 1_000))
    @settings(max_examples=40)
    def test_property_matches_scalar(self, n, seed):
        rows, y, w = self._rows(n, seed)
        plain = pearson_rows(rows, y)
        weighted = weighted_pearson_rows(rows, y, w)
        for i, row in enumerate(rows):
            assert plain[i] == pytest.approx(pearson(row, y), rel=0, abs=1e-12)
            assert weighted[i] == pytest.approx(weighted_pearson(row, y, w), rel=0, abs=1e-12)

    def test_identical_rows_score_identically(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=1801)
        rows = np.tile(rng.normal(size=1801), (9, 1))
        assert len(set(pearson_rows(rows, y))) == 1
        assert len(set(weighted_pearson_rows(rows, y, rng.uniform(size=1801)))) == 1

    def test_degenerate_inputs_are_zero(self):
        rows, y, w = self._rows(8, 0)
        assert (pearson_rows(rows, np.full(8, 2.0)) == 0.0).all()
        assert (weighted_pearson_rows(rows, y, np.zeros(8)) == 0.0).all()
        assert (pearson_rows(rows[:, :1], y[:1]) == 0.0).all()
        with pytest.raises(ValueError):
            pearson_rows(rows, y[:5])


class TestSigmoidWeights:
    def test_high_inside_anomaly_window(self):
        w = sigmoid_anomaly_weights(0, 600, 200, 400, smooth_factor=10)
        inside = w[250:350]
        outside = np.concatenate([w[:100], w[550:]])
        assert inside.min() > 0.9
        assert outside.max() < 0.1

    def test_small_ks_approaches_indicator(self):
        w = sigmoid_anomaly_weights(0, 100, 40, 60, smooth_factor=0.01)
        assert w[50] == pytest.approx(1.0, abs=1e-6)
        assert w[10] == pytest.approx(0.0, abs=1e-6)

    def test_large_ks_approaches_uniform(self):
        # As ks → ∞ the weights flatten to a common (small, positive)
        # constant, so the weighted Pearson degenerates to the naive one —
        # the behaviour the paper's Eq. (1) limit describes.
        w = sigmoid_anomaly_weights(0, 100, 40, 60, smooth_factor=1e6)
        assert np.allclose(w, w[0])
        assert w[0] > 0.0
        rng = np.random.default_rng(11)
        x = rng.normal(size=100)
        y = 0.7 * x + rng.normal(size=100)
        assert weighted_pearson(x, y, w) == pytest.approx(pearson(x, y), abs=1e-6)

    def test_weights_in_unit_interval(self):
        w = sigmoid_anomaly_weights(0, 1000, 100, 200, smooth_factor=30)
        assert (w >= 0).all() and (w <= 1).all()

    def test_smooth_transition(self):
        # Weights should grow monotonically approaching the anomaly start.
        w = sigmoid_anomaly_weights(0, 400, 200, 300, smooth_factor=30)
        ramp = w[100:200]
        assert (np.diff(ramp) >= 0).all()

    def test_invalid_smooth_factor_rejected(self):
        with pytest.raises(ValueError):
            sigmoid_anomaly_weights(0, 10, 2, 5, smooth_factor=0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            sigmoid_anomaly_weights(10, 10, 2, 5, smooth_factor=1)

    def test_length_matches_window(self):
        w = sigmoid_anomaly_weights(100, 700, 300, 500, smooth_factor=30)
        assert len(w) == 600
