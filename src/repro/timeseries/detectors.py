"""Anomaly detectors for performance-metric time series.

Three detectors back PinSQL:

* :class:`SpikeDetector` — robust (median/MAD) z-score spikes that recover;
* :class:`LevelShiftDetector` — sustained mean shifts that do not recover;
* :class:`TukeyDetector` — Tukey's rule (Q1/Q3 ± k·IQR), used by the
  history-trend verification step of the R-SQL module (paper Section VI).

All detectors are streaming-free: they analyse a finished window, which is
how PinSQL's asynchronous root-cause analysis consumes them.  The
real-time layer simply applies them on a sliding window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.timeseries.features import AnomalousFeature, FeatureKind
from repro.timeseries.series import TimeSeries

__all__ = [
    "Detection",
    "SpikeDetector",
    "LevelShiftDetector",
    "TukeyDetector",
    "detect_anomalous_features",
]


@dataclass(frozen=True)
class Detection:
    """A contiguous anomalous region found by a detector."""

    kind: FeatureKind
    start_index: int
    end_index: int  # exclusive
    severity: float

    @property
    def length(self) -> int:
        return self.end_index - self.start_index


def _robust_center_scale(values: np.ndarray) -> tuple[float, float]:
    """Median and MAD-based scale with a floor to avoid zero division."""
    center = float(np.median(values))
    mad = float(np.median(np.abs(values - center)))
    scale = 1.4826 * mad
    if scale < 1e-9:
        std = float(values.std())
        scale = max(std, 1e-9)
    return center, scale


def _mask_to_regions(mask: np.ndarray) -> list[tuple[int, int]]:
    """Convert a boolean mask into a list of [start, end) index regions."""
    regions: list[tuple[int, int]] = []
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return regions
    run_start = int(idx[0])
    prev = int(idx[0])
    for i in idx[1:]:
        i = int(i)
        if i != prev + 1:
            regions.append((run_start, prev + 1))
            run_start = i
        prev = i
    regions.append((run_start, prev + 1))
    return regions


class SpikeDetector:
    """Detect spike up/down: sudden deviation followed by recovery.

    A point is spiky when its robust z-score against the window baseline
    exceeds ``threshold``.  A contiguous spiky region qualifies as a spike
    (rather than a level shift) when it recovers, i.e. it ends before the
    final ``recovery_margin`` fraction of the window.
    """

    def __init__(self, threshold: float = 3.5, recovery_margin: float = 0.05,
                 min_length: int = 1, min_deviation: float = 0.0) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if min_deviation < 0:
            raise ValueError("min_deviation must be non-negative")
        self.threshold = threshold
        self.recovery_margin = recovery_margin
        self.min_length = max(1, int(min_length))
        #: Absolute floor: a sample must also deviate from the baseline by
        #: at least this much.  On near-idle metrics the robust scale is
        #: tiny and pure z-scores flag operationally meaningless blips.
        self.min_deviation = float(min_deviation)

    def detect(self, series: TimeSeries | np.ndarray) -> list[Detection]:
        values = series.values if isinstance(series, TimeSeries) else np.asarray(series, float)
        n = len(values)
        if n < 4:
            return []
        center, scale = _robust_center_scale(values)
        z = (values - center) / scale
        deviation_ok = np.abs(values - center) >= self.min_deviation
        detections: list[Detection] = []
        recover_bound = n - max(1, int(round(n * self.recovery_margin)))
        for direction, mask in (
            (FeatureKind.SPIKE_UP, (z > self.threshold) & deviation_ok),
            (FeatureKind.SPIKE_DOWN, (z < -self.threshold) & deviation_ok),
        ):
            for start, end in _mask_to_regions(mask):
                if end - start < self.min_length:
                    continue
                if end > recover_bound:
                    continue  # does not recover inside the window: not a spike
                severity = float(np.abs(z[start:end]).max())
                detections.append(Detection(direction, start, end, severity))
        detections.sort(key=lambda d: d.start_index)
        return detections


class LevelShiftDetector:
    """Detect sustained level shifts via a full-split mean comparison.

    For every candidate change point ``cp`` the detector compares the mean
    of *all* samples before and after ``cp``, normalised by a robust noise
    scale estimated from first differences (differencing removes the level
    shift itself, and isolated spikes contribute only two diff samples, so
    the scale is a faithful noise estimate either way).  Full-half means
    dilute the contribution of a transient spike, so spikes do not
    masquerade as shifts — the failure mode a local two-window comparison
    suffers from.
    """

    def __init__(self, threshold: float = 3.5, window: int = 30,
                 min_deviation: float = 0.0) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if min_deviation < 0:
            raise ValueError("min_deviation must be non-negative")
        self.threshold = threshold
        self.window = max(2, int(window))
        self.min_deviation = float(min_deviation)

    def detect(self, series: TimeSeries | np.ndarray) -> list[Detection]:
        values = series.values if isinstance(series, TimeSeries) else np.asarray(series, float)
        n = len(values)
        w = max(2, min(self.window, n // 4))
        if n < 3 * w:
            return []
        diffs = np.diff(values)
        med_d = float(np.median(diffs))
        mad_d = float(np.median(np.abs(diffs - med_d)))
        scale = 1.4826 * mad_d / np.sqrt(2.0)
        if scale < 1e-9:
            std_d = float(diffs.std()) / np.sqrt(2.0)
            scale = max(std_d, 1e-9)
        csum = np.concatenate([[0.0], np.cumsum(values)])
        idx = np.arange(w, n - w + 1)
        before = csum[idx] / idx
        after = (csum[n] - csum[idx]) / (n - idx)
        shift = (after - before) / scale
        order = int(np.argmax(np.abs(shift)))
        best = float(shift[order])
        if abs(best) < self.threshold:
            return []
        cp = int(idx[order])
        # Robust confirmation: the shift must also show in the medians,
        # which a transient spike cannot move.
        pre_med = float(np.median(values[:cp]))
        post_med = float(np.median(values[cp:]))
        if abs(post_med - pre_med) / scale < self.threshold:
            return []
        if abs(post_med - pre_med) < self.min_deviation:
            return []
        midpoint = (pre_med + post_med) / 2.0
        tail = values[cp:]
        if post_med > pre_med:
            persists = float(np.mean(tail > midpoint)) > 0.7
            kind = FeatureKind.LEVEL_SHIFT_UP
        else:
            persists = float(np.mean(tail < midpoint)) > 0.7
            kind = FeatureKind.LEVEL_SHIFT_DOWN
        if not persists:
            return []
        return [Detection(kind, cp, n, abs(best))]


class TukeyDetector:
    """Tukey's rule outlier detection (paper Section VI, history verification).

    A sample is anomalous when it falls outside ``[Q1 − k·IQR, Q3 + k·IQR]``.
    ``k = 3.0`` is the classical "far out" labeling the paper's reference
    (Hoaglin, Iglewicz & Tukey 1986) recommends for resistant rules.

    :meth:`rows_vs_baseline` is the history-verification rule, row-wise:
    one call judges a matrix of equal-length series against fences fit
    on each row's pre-window baseline, and
    :meth:`has_anomaly_vs_baseline` is that rule on a single row.
    """

    def __init__(self, k: float = 3.0) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def has_anomaly_vs_baseline(
        self, series: TimeSeries | np.ndarray, window: tuple[int, int]
    ) -> bool:
        """Whether values inside ``window`` exceed fences fit on the data
        *before* the window: :meth:`rows_vs_baseline` of one row."""
        values = series.values if isinstance(series, TimeSeries) else np.asarray(series, float)
        return bool(self.rows_vs_baseline(values[None, :], window)[0])

    def rows_vs_baseline(self, matrix: np.ndarray, window: tuple[int, int]) -> np.ndarray:
        """Per row of ``matrix``, whether a value inside ``window`` is an
        upward anomaly against fences fit on the row *before* the window.

        Fitting fences on the pre-window baseline avoids the
        contamination problem: when the anomaly occupies a sizeable
        fraction of the series, quartiles computed over the whole series
        absorb the anomalous values and the rule goes blind.  Used by the
        R-SQL history-trend verification, whose anomaly windows routinely
        cover a third of the collected data.

        The window is clipped to the row; an empty window flags nothing.
        With fewer than 4 baseline points the fences are fit on the
        whole row instead; a degenerate whole row (IQR below 1e-9) then
        flags values off its median by more than a relative tolerance,
        in either direction.  A degenerate baseline
        (IQR below 1e-9) flags values above its median plus a relative
        tolerance.  Quartiles and medians are taken along each row with
        ``axis=1``, which equals the one-row calls bit for bit.
        """
        values = np.asarray(matrix, dtype=float)
        n_rows, length = values.shape
        lo_i, hi_i = max(0, window[0]), min(length, window[1])
        if hi_i <= lo_i or n_rows == 0:
            return np.zeros(n_rows, dtype=bool)
        whole = lo_i < 4
        fit = values if whole else values[:, :lo_i]
        target = values[:, lo_i:hi_i]
        q1, q3 = np.percentile(fit, [25, 75], axis=1)
        iqr = q3 - q1
        out = (target > (q3 + self.k * iqr)[:, None]).any(axis=1)
        degenerate = iqr < 1e-9
        if degenerate.any():
            center = np.median(fit[degenerate], axis=1)
            tol = np.maximum(1e-9, np.abs(center) * 1e-6)
            if whole:
                deviation = np.abs(target[degenerate] - center[:, None])
                flagged = deviation > (tol + self.k * 1e-9)[:, None]
            else:
                flagged = target[degenerate] > (center + tol)[:, None]
            out[degenerate] = flagged.any(axis=1)
        return out


def detect_anomalous_features(
    metric_name: str,
    series: TimeSeries,
    spike_detector: SpikeDetector | None = None,
    level_shift_detector: LevelShiftDetector | None = None,
) -> list[AnomalousFeature]:
    """Run the Basic Perception detectors over one metric series.

    Returns the anomalous features found, with detection indices converted
    to timestamps on the series' time axis.
    """
    spike_detector = spike_detector or SpikeDetector()
    level_shift_detector = level_shift_detector or LevelShiftDetector()
    features: list[AnomalousFeature] = []
    detections: Sequence[Detection] = [
        *spike_detector.detect(series),
        *level_shift_detector.detect(series),
    ]
    for det in detections:
        features.append(
            AnomalousFeature(
                metric=metric_name,
                kind=det.kind,
                start=series.start + det.start_index * series.interval,
                end=series.start + det.end_index * series.interval,
                severity=det.severity,
            )
        )
    features.sort(key=lambda f: f.start)
    return features
