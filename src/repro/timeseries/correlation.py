"""Correlation measures used throughout PinSQL.

Implements the plain Pearson coefficient, the *weighted* Pearson
coefficient with a Sigmoid-based anomaly-window weight (paper Section V,
Eq. (1)), and small numerical guards: a correlation involving a
(near-)constant series is defined as 0.0 rather than NaN, because a flat
template trivially carries no trend information about the anomaly.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.series import TimeSeries

__all__ = [
    "pearson",
    "pearson_rows",
    "weighted_pearson",
    "weighted_pearson_rows",
    "sigmoid_anomaly_weights",
]

#: Variance floor below which a series is treated as constant.
_EPS = 1e-12


def _as_array(x) -> np.ndarray:
    if isinstance(x, TimeSeries):
        return x.values
    return np.asarray(x, dtype=np.float64)


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length series.

    Returns 0.0 when either input is (near-)constant or shorter than two
    samples, so callers never have to special-case NaN.
    """
    xa, ya = _as_array(x), _as_array(y)
    if len(xa) != len(ya):
        raise ValueError(f"length mismatch: {len(xa)} vs {len(ya)}")
    if len(xa) < 2:
        return 0.0
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    vx = float(np.dot(xc, xc))
    vy = float(np.dot(yc, yc))
    if vx < _EPS or vy < _EPS:
        return 0.0
    r = float(np.dot(xc, yc)) / np.sqrt(vx * vy)
    return float(np.clip(r, -1.0, 1.0))


def weighted_pearson(x, y, weights) -> float:
    """Weighted Pearson correlation (paper Section V, trend-level score).

    ``cov(X, Y; W) = Σᵢ wᵢ·(xᵢ−m(X;W))(yᵢ−m(Y;W)) / Σᵢ wᵢ`` with the
    weighted means ``m(·;W)``.  Degenerate inputs yield 0.0.
    """
    xa, ya = _as_array(x), _as_array(y)
    w = np.asarray(weights, dtype=np.float64)
    if not (len(xa) == len(ya) == len(w)):
        raise ValueError("x, y and weights must share a length")
    if len(xa) < 2:
        return 0.0
    wsum = float(w.sum())
    if wsum < _EPS:
        return 0.0
    mx = float(np.dot(w, xa)) / wsum
    my = float(np.dot(w, ya)) / wsum
    xc = xa - mx
    yc = ya - my
    cov = float(np.dot(w, xc * yc)) / wsum
    vx = float(np.dot(w, xc * xc)) / wsum
    vy = float(np.dot(w, yc * yc)) / wsum
    if vx < _EPS or vy < _EPS:
        return 0.0
    r = cov / np.sqrt(vx * vy)
    return float(np.clip(r, -1.0, 1.0))


def pearson_rows(rows: np.ndarray, y) -> np.ndarray:
    """:func:`pearson` of each row of a 2-D array with ``y``.

    Row sums use ``sum(axis=1)``, so identical rows score identically.
    """
    xa, ya = np.asarray(rows, dtype=np.float64), _as_array(y)
    if xa.shape[1] != len(ya):
        raise ValueError(f"length mismatch: {xa.shape[1]} vs {len(ya)}")
    if len(ya) < 2:
        return np.zeros(len(xa))
    xc = xa - xa.mean(axis=1, keepdims=True)
    yc = ya - ya.mean()
    vx = (xc * xc).sum(axis=1)
    vy = float(np.dot(yc, yc))
    return _clipped_ratio((xc * yc).sum(axis=1), vx, vy)


def weighted_pearson_rows(rows: np.ndarray, y, weights) -> np.ndarray:
    """:func:`weighted_pearson` of each row of a 2-D array with ``y``."""
    xa, ya = np.asarray(rows, dtype=np.float64), _as_array(y)
    w = np.asarray(weights, dtype=np.float64)
    if not (xa.shape[1] == len(ya) == len(w)):
        raise ValueError("rows, y and weights must share a length")
    wsum = float(w.sum())
    if len(ya) < 2 or wsum < _EPS:
        return np.zeros(len(xa))
    mx = (xa * w).sum(axis=1, keepdims=True) / wsum
    my = float(np.dot(w, ya)) / wsum
    xc = xa - mx
    yc = ya - my
    cov = (xc * yc * w).sum(axis=1) / wsum
    vx = (xc * xc * w).sum(axis=1) / wsum
    vy = float(np.dot(w, yc * yc)) / wsum
    return _clipped_ratio(cov, vx, vy)


def _clipped_ratio(cov: np.ndarray, vx: np.ndarray, vy: float) -> np.ndarray:
    """``cov / sqrt(vx·vy)`` in [−1, 1], and 0 where either variance < _EPS."""
    r = np.zeros(len(cov))
    if vy < _EPS:
        return r
    ok = ~(vx < _EPS)
    r[ok] = cov[ok] / np.sqrt(vx[ok] * vy)
    return np.clip(r, -1.0, 1.0)


def sigmoid_anomaly_weights(
    ts: int, te: int, anomaly_start: int, anomaly_end: int, smooth_factor: float
) -> np.ndarray:
    """Sigmoid-based weight highlighting the anomaly period (paper Eq. (1)).

    ``Wₜ = σ((t−as)/ks) + σ((ae−t)/ks) − 1`` for ``t ∈ [ts, te)``.  As
    ``ks → 0`` the weight becomes the anomaly-window indicator; as
    ``ks → ∞`` it tends to the all-ones weight (plain Pearson).

    Parameters
    ----------
    ts, te:
        Bounds of the analysed window ``[ts, te)`` (1-second steps).
    anomaly_start, anomaly_end:
        The detected anomaly period ``[as, ae)``.
    smooth_factor:
        ``ks > 0``; the paper's default is 30.
    """
    if smooth_factor <= 0:
        raise ValueError("smooth_factor must be positive")
    if te <= ts:
        raise ValueError("empty window: te must exceed ts")
    t = np.arange(ts, te, dtype=np.float64)
    ks = float(smooth_factor)

    def _sigmoid(z: np.ndarray) -> np.ndarray:
        # Numerically stable logistic function.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    w = _sigmoid((t - anomaly_start) / ks) + _sigmoid((anomaly_end - t) / ks) - 1.0
    # The analytic form can dip infinitesimally below zero far from the
    # window; clamp so downstream weighted sums stay well-defined.
    return np.clip(w, 0.0, 1.0)
