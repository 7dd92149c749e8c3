"""Fixed-interval time series (paper Definition II.1).

A :class:`TimeSeries` is a sequence of observations sampled at a fixed
interval starting at an integer epoch timestamp.  Following the paper's
convention, elements can be addressed interchangeably by index or by
timestamp: ``X[t1]`` and ``X[1]`` denote the same observation when ``t1``
is the timestamp one interval after the series start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["TimeSeries", "forward_fill_series"]


@dataclass
class TimeSeries:
    """A fixed-interval sequence of float observations.

    Parameters
    ----------
    values:
        Observation values; stored as a float64 numpy array.
    start:
        Timestamp (seconds since an arbitrary epoch) of the first sample.
    interval:
        Sampling interval in seconds (the paper uses 1 s and 1 min).
    name:
        Optional label, e.g. ``"active_session"`` or a SQL template id.
    """

    values: np.ndarray
    start: int = 0
    interval: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("TimeSeries values must be one-dimensional")
        if self.interval <= 0:
            raise ValueError("interval must be positive")

    # ------------------------------------------------------------------
    # Basic shape / time accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        """Timestamp one interval past the last sample (exclusive bound)."""
        return self.start + len(self.values) * self.interval

    @property
    def timestamps(self) -> np.ndarray:
        """Timestamps of every sample as an integer array."""
        return self.start + np.arange(len(self.values), dtype=np.int64) * self.interval

    def to_index(self, timestamp: int) -> int:
        """Convert a timestamp to the index of its containing sample."""
        idx = (int(timestamp) - self.start) // self.interval
        if idx < 0 or idx >= len(self.values):
            raise IndexError(
                f"timestamp {timestamp} outside series range "
                f"[{self.start}, {self.end})"
            )
        return int(idx)

    def at_index(self, index: int) -> float:
        """Element by positional index (negative counts from the end)."""
        index = int(index)
        n = len(self.values)
        if not -n <= index < n:
            raise IndexError(
                f"index {index} out of range for series of length {n}"
            )
        return self.values[index]

    def at_timestamp(self, timestamp: int) -> float:
        """Element by timestamp (must fall within ``[start, end)``)."""
        return self.values[self.to_index(timestamp)]

    def __getitem__(self, key):
        """Index-or-timestamp element access (paper's dual addressing).

        The decision is explicit, in priority order:

        1. slices are always index-based;
        2. when ``start == 0`` the two addressings coincide — plain
           index (negative counts from the end);
        3. a key within ``[start, end)`` is a timestamp;
        4. a key within ``[0, len)`` is a plain index;
        5. anything else raises :class:`IndexError` naming both valid
           ranges (instead of falling through to numpy with a key that
           was silently treated as an index).

        Use :meth:`at_index` / :meth:`at_timestamp` to bypass the
        heuristic entirely.
        """
        if isinstance(key, slice):
            return self.values[key]
        key = int(key)
        if self.start == 0:
            return self.at_index(key)
        if self.start <= key < self.end:
            return self.at_timestamp(key)
        if 0 <= key < len(self.values):
            return self.values[key]
        raise IndexError(
            f"key {key} is neither a valid index (0 <= i < {len(self.values)}) "
            f"nor a timestamp in [{self.start}, {self.end}); "
            f"use at_index()/at_timestamp() for explicit addressing"
        )

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def window(self, t0: int, t1: int) -> "TimeSeries":
        """Return the sub-series covering ``[t0, t1)`` (timestamps).

        The window is clipped to the series bounds.
        """
        i0 = max(0, (int(t0) - self.start) // self.interval)
        i1 = min(len(self.values), (int(t1) - self.start) // self.interval)
        i1 = max(i0, i1)
        return TimeSeries(
            self.values[i0:i1],
            start=self.start + i0 * self.interval,
            interval=self.interval,
            name=self.name,
        )

    def resample(self, factor: int, how: str = "sum") -> "TimeSeries":
        """Downsample by an integer factor (e.g. 1 s → 1 min with factor 60).

        Trailing samples that do not fill a complete bucket are dropped,
        mirroring how stream aggregation only emits closed windows.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        if factor == 1:
            return TimeSeries(self.values.copy(), self.start, self.interval, self.name)
        n = (len(self.values) // factor) * factor
        buckets = self.values[:n].reshape(-1, factor)
        if how == "sum":
            agg = buckets.sum(axis=1)
        elif how == "mean":
            agg = buckets.mean(axis=1)
        elif how == "max":
            agg = buckets.max(axis=1)
        else:
            raise ValueError(f"unknown aggregation {how!r}")
        return TimeSeries(agg, self.start, self.interval * factor, self.name)

    # ------------------------------------------------------------------
    # Arithmetic helpers (used by score computations)
    # ------------------------------------------------------------------
    def _check_aligned(self, other: "TimeSeries") -> None:
        if (
            self.start != other.start
            or self.interval != other.interval
            or len(self) != len(other)
        ):
            raise ValueError("series are not aligned (start/interval/length differ)")

    def __add__(self, other):
        if isinstance(other, TimeSeries):
            self._check_aligned(other)
            return TimeSeries(
                self.values + other.values, self.start, self.interval, self.name
            )
        return TimeSeries(self.values + other, self.start, self.interval, self.name)

    def __truediv__(self, other):
        if isinstance(other, TimeSeries):
            self._check_aligned(other)
            denom = np.where(other.values == 0.0, np.nan, other.values)
            out = self.values / denom
            return TimeSeries(
                np.nan_to_num(out, nan=0.0), self.start, self.interval, self.name
            )
        return TimeSeries(self.values / other, self.start, self.interval, self.name)

    def total(self) -> float:
        """Sum of all observations."""
        return float(self.values.sum())

    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 for empty series)."""
        if len(self.values) == 0:
            return 0.0
        return float(self.values.mean())

    def copy(self) -> "TimeSeries":
        return TimeSeries(self.values.copy(), self.start, self.interval, self.name)

    @classmethod
    def zeros(cls, length: int, start: int = 0, interval: int = 1, name: str = "") -> "TimeSeries":
        """A series of ``length`` zero observations."""
        return cls(np.zeros(length, dtype=np.float64), start, interval, name)


def forward_fill_series(
    samples: Mapping[int, float], ts: int, te: int, name: str = ""
) -> TimeSeries:
    """Forward-filled 1 Hz series over ``[ts, te)`` from sparse samples.

    Seconds before the first sample hold 0.0; afterwards each second
    carries the most recent sample value (the same convention the
    service uses when reconstructing detector metric buffers).
    """
    if te <= ts:
        raise ValueError("te must be greater than ts")
    values = np.zeros(te - ts, dtype=np.float64)
    last = 0.0
    for i, t in enumerate(range(ts, te)):
        if t in samples:
            last = samples[t]
        values[i] = last
    return TimeSeries(values, start=ts, name=name)
