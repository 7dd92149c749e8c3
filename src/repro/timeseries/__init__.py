"""Time-series substrate for PinSQL.

This package provides the fixed-interval :class:`TimeSeries` container
(paper Definition II.1), correlation measures including the sigmoid-weighted
Pearson coefficient used by the H-SQL trend-level score (paper Section V),
and the anomaly detectors (spike, level shift, Tukey's rule) that back both
the Basic Perception layer and the history-trend verification step.
"""

from repro.timeseries.series import TimeSeries
from repro.timeseries.correlation import (
    pearson,
    pearson_rows,
    weighted_pearson,
    weighted_pearson_rows,
    sigmoid_anomaly_weights,
)
from repro.timeseries.detectors import (
    Detection,
    SpikeDetector,
    LevelShiftDetector,
    TukeyDetector,
    detect_anomalous_features,
)
from repro.timeseries.features import AnomalousFeature, FeatureKind

__all__ = [
    "TimeSeries",
    "pearson",
    "pearson_rows",
    "weighted_pearson",
    "weighted_pearson_rows",
    "sigmoid_anomaly_weights",
    "Detection",
    "SpikeDetector",
    "LevelShiftDetector",
    "TukeyDetector",
    "detect_anomalous_features",
    "AnomalousFeature",
    "FeatureKind",
]
