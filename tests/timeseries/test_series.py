"""Tests for the TimeSeries container."""

import numpy as np
import pytest

from repro.timeseries import TimeSeries


class TestConstruction:
    def test_values_coerced_to_float64(self):
        ts = TimeSeries([1, 2, 3])
        assert ts.values.dtype == np.float64

    def test_rejects_2d_values(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeSeries(np.zeros((2, 2)))

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            TimeSeries([1.0], interval=0)

    def test_zeros_factory(self):
        ts = TimeSeries.zeros(5, start=100, interval=60, name="m")
        assert len(ts) == 5
        assert ts.start == 100
        assert ts.interval == 60
        assert ts.name == "m"
        assert ts.total() == 0.0


class TestAddressing:
    def test_timestamp_and_index_equivalence(self):
        # Paper Def II.1: X[t1] and X[1] access the same element.
        ts = TimeSeries([10.0, 11.0, 12.0], start=1000)
        assert ts[1000] == 10.0
        assert ts[0] == 10.0
        assert ts[1002] == 12.0
        assert ts[2] == 12.0

    def test_to_index_out_of_range(self):
        ts = TimeSeries([1.0, 2.0], start=100)
        with pytest.raises(IndexError):
            ts.to_index(99)
        with pytest.raises(IndexError):
            ts.to_index(102)

    def test_explicit_accessors(self):
        ts = TimeSeries([10.0, 11.0, 12.0], start=1000)
        assert ts.at_index(1) == 11.0
        assert ts.at_index(-1) == 12.0
        assert ts.at_timestamp(1001) == 11.0
        with pytest.raises(IndexError, match="out of range"):
            ts.at_index(3)
        with pytest.raises(IndexError, match="outside series range"):
            ts.at_timestamp(1003)
        with pytest.raises(IndexError, match="outside series range"):
            ts.at_timestamp(2)

    def test_gap_key_raises_clear_error(self):
        # Keys in (len, start) used to fall through to numpy as a plain
        # index and raise a confusing out-of-bounds error.
        ts = TimeSeries([10.0, 11.0, 12.0], start=1000)
        with pytest.raises(IndexError, match="neither a valid index"):
            ts[500]
        with pytest.raises(IndexError, match="at_index"):
            ts[1003]

    def test_negative_key_nonzero_start_rejected(self):
        # Previously -5 silently indexed from the end of a start=1000
        # series; addressing is now explicit.
        ts = TimeSeries([10.0, 11.0, 12.0], start=1000)
        with pytest.raises(IndexError, match="neither"):
            ts[-1]

    def test_zero_start_plain_indexing(self):
        ts = TimeSeries([1.0, 2.0, 3.0], start=0)
        assert ts[-1] == 3.0
        with pytest.raises(IndexError, match="out of range"):
            ts[3]

    def test_timestamps_property(self):
        ts = TimeSeries([1, 2, 3], start=50, interval=10)
        assert list(ts.timestamps) == [50, 60, 70]

    def test_end_is_exclusive(self):
        ts = TimeSeries([1, 2], start=0, interval=60)
        assert ts.end == 120


class TestWindow:
    def test_window_extracts_range(self):
        ts = TimeSeries(np.arange(10.0), start=100)
        w = ts.window(103, 106)
        assert list(w.values) == [3.0, 4.0, 5.0]
        assert w.start == 103

    def test_window_clips_to_bounds(self):
        ts = TimeSeries(np.arange(5.0), start=100)
        w = ts.window(90, 200)
        assert len(w) == 5
        assert w.start == 100

    def test_empty_window(self):
        ts = TimeSeries(np.arange(5.0), start=100)
        w = ts.window(200, 210)
        assert len(w) == 0


class TestResample:
    def test_sum_resample(self):
        ts = TimeSeries(np.ones(120), start=0, interval=1)
        minute = ts.resample(60, how="sum")
        assert len(minute) == 2
        assert minute.interval == 60
        assert list(minute.values) == [60.0, 60.0]

    def test_mean_resample(self):
        ts = TimeSeries([2.0, 4.0, 6.0, 8.0], start=0)
        out = ts.resample(2, how="mean")
        assert list(out.values) == [3.0, 7.0]

    def test_max_resample(self):
        ts = TimeSeries([1.0, 9.0, 3.0, 4.0], start=0)
        out = ts.resample(2, how="max")
        assert list(out.values) == [9.0, 4.0]

    def test_partial_trailing_bucket_dropped(self):
        ts = TimeSeries(np.arange(7.0))
        out = ts.resample(3)
        assert len(out) == 2

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation"):
            TimeSeries([1.0, 2.0]).resample(2, how="median")

    def test_factor_one_is_copy(self):
        ts = TimeSeries([1.0, 2.0])
        out = ts.resample(1)
        out.values[0] = 99.0
        assert ts.values[0] == 1.0


class TestArithmetic:
    def test_add_series(self):
        a = TimeSeries([1.0, 2.0])
        b = TimeSeries([3.0, 4.0])
        assert list((a + b).values) == [4.0, 6.0]

    def test_add_scalar(self):
        assert list((TimeSeries([1.0]) + 1.5).values) == [2.5]

    def test_div_handles_zero_denominator(self):
        a = TimeSeries([1.0, 2.0])
        b = TimeSeries([0.0, 4.0])
        out = a / b
        assert list(out.values) == [0.0, 0.5]

    def test_misaligned_add_rejected(self):
        a = TimeSeries([1.0, 2.0], start=0)
        b = TimeSeries([1.0, 2.0], start=5)
        with pytest.raises(ValueError, match="not aligned"):
            a + b

    def test_mean_of_empty_series(self):
        assert TimeSeries(np.array([])).mean() == 0.0
