"""Degraded-mode policy: diagnose on imperfect evidence, and say so.

The detector's metric buffers can have holes — dropped messages, a
collector restart, a late-arriving batch still in flight.  Refusing to
diagnose would miss real incidents; diagnosing silently would launder
shaky evidence into confident verdicts.  The middle path, following
DBSherlock's handling of imperfect metric windows: detect the gaps,
fall back (linear interpolation across holes, a shrunken context
window when leading context is missing entirely), and stamp the
resulting :class:`DiagnosisConfidence` on the diagnosis so incident
records carry it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.telemetry import MetricsRegistry, get_registry
from repro.timeseries import TimeSeries, forward_fill_series

__all__ = [
    "DiagnosisConfidence",
    "DegradedAssessment",
    "DegradedModePolicy",
    "interpolate_series",
    "window_gap_fraction",
]


class DiagnosisConfidence(str, enum.Enum):
    """How much the evidence behind a diagnosis can be trusted."""

    FULL = "full"
    DEGRADED = "degraded"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


def window_gap_fraction(
    samples: Mapping[int, float], ts: int, te: int, interval: int = 1
) -> float:
    """Fraction of expected samples missing from ``[ts, te)``.

    ``1.0`` means the window is empty; ``0.0`` means every expected
    point (one per ``interval`` seconds) is present.
    """
    if te <= ts:
        raise ValueError("te must be greater than ts")
    expected = max(1, (te - ts) // max(interval, 1))
    present = sum(1 for t in samples if ts <= t < te)
    return max(0.0, 1.0 - present / expected)


def interpolate_series(
    samples: Mapping[int, float], ts: int, te: int, name: str = ""
) -> TimeSeries:
    """Linear interpolation of raw samples onto ``[ts, te)`` at 1 Hz.

    Interior gaps are bridged linearly; the edges extend flat from the
    first/last available sample (``np.interp`` semantics).  Raises
    :class:`ValueError` on an empty sample set — the caller is expected
    to have checked the window is non-empty.
    """
    points = sorted((t, v) for t, v in samples.items() if ts <= t < te)
    if not points:
        raise ValueError(f"no samples for {name or 'series'} in [{ts}, {te})")
    xs = np.asarray([t for t, _ in points], dtype=np.float64)
    ys = np.asarray([v for _, v in points], dtype=np.float64)
    grid = np.arange(ts, te, dtype=np.float64)
    return TimeSeries(np.interp(grid, xs, ys), start=ts, name=name)


@dataclass(frozen=True)
class DegradedAssessment:
    """What the policy found out about one evidence window."""

    confidence: DiagnosisConfidence
    #: Machine-readable reasons, e.g. ``metric_gap:active_session:0.41``.
    reasons: tuple[str, ...] = ()
    #: Possibly shrunken window start (``>= `` the requested ``ts``).
    ts: int = 0
    #: Per-metric gap fraction over the (final) window.
    gap_fractions: dict = field(default_factory=dict)
    #: Metrics whose series should be interpolated rather than
    #: forward-filled (gap fraction above the policy threshold).
    interpolated: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.confidence is DiagnosisConfidence.DEGRADED


class DegradedModePolicy:
    """Detects evidence-window defects and picks the fallback.

    Parameters
    ----------
    max_gap_fraction:
        Per-metric missing-sample fraction above which the window is
        considered gappy: the metric's series is rebuilt by linear
        interpolation and the diagnosis is stamped ``degraded``.
    min_window_fraction:
        When leading context is missing (the buffers start after the
        requested ``ts``) the window is shrunk to the earliest available
        sample.  Shrinking below this fraction of the requested window
        also stamps ``degraded``.
    """

    def __init__(
        self,
        max_gap_fraction: float = 0.25,
        min_window_fraction: float = 0.5,
        registry: MetricsRegistry | None = None,
        **labels: str,
    ) -> None:
        if not 0.0 < max_gap_fraction <= 1.0:
            raise ValueError("max_gap_fraction must be in (0, 1]")
        if not 0.0 < min_window_fraction <= 1.0:
            raise ValueError("min_window_fraction must be in (0, 1]")
        self.max_gap_fraction = float(max_gap_fraction)
        self.min_window_fraction = float(min_window_fraction)
        self.registry = registry or get_registry()
        self.labels = labels

    # ------------------------------------------------------------------
    def assess(
        self,
        samples_by_metric: Mapping[str, Mapping[int, float]],
        ts: int,
        te: int,
        anomaly_start: int | None = None,
        extra_reasons: tuple[str, ...] = (),
    ) -> DegradedAssessment:
        """Inspect the buffered samples over ``[ts, te)``; decide the fallback.

        ``extra_reasons`` lets the caller contribute defects the policy
        cannot see itself (e.g. quarantined log batches); any reason —
        detected or contributed — stamps the window degraded.
        """
        reasons = list(extra_reasons)
        final_ts = ts
        # Leading context missing entirely → shrink the window.
        earliest = min(
            (
                min((t for t in samples if ts <= t < te), default=te)
                for samples in samples_by_metric.values()
            ),
            default=te,
        )
        if earliest > ts:
            limit = te - 1 if anomaly_start is None else min(anomaly_start, te - 1)
            final_ts = min(int(earliest), max(ts, limit))
            if final_ts > ts:
                requested = te - ts
                kept = te - final_ts
                reasons.append(f"shrunken_window:{final_ts - ts}s")
                if kept < self.min_window_fraction * requested:
                    reasons.append("window_below_min_fraction")
        gap_fractions: dict[str, float] = {}
        interpolated: list[str] = []
        for name, samples in samples_by_metric.items():
            gap = window_gap_fraction(samples, final_ts, te)
            gap_fractions[name] = gap
            if gap >= 1.0:
                # Nothing at all in the window: nothing to interpolate;
                # the engine decides whether the metric was required.
                continue
            if gap > self.max_gap_fraction:
                interpolated.append(name)
                reasons.append(f"metric_gap:{name}:{gap:.2f}")
        confidence = (
            DiagnosisConfidence.DEGRADED if reasons else DiagnosisConfidence.FULL
        )
        if reasons:
            self.registry.counter(
                "diagnosis_degraded_total",
                help="Diagnoses that fell back to degraded mode.",
                **self.labels,
            ).inc()
        return DegradedAssessment(
            confidence=confidence,
            reasons=tuple(reasons),
            ts=final_ts,
            gap_fractions=gap_fractions,
            interpolated=tuple(interpolated),
        )

    def build_series(
        self,
        samples: Mapping[int, float],
        assessment: DegradedAssessment,
        te: int,
        name: str = "",
    ) -> TimeSeries:
        """The evidence series for one metric under the assessment.

        Gappy metrics (per the assessment) are linearly interpolated;
        healthy ones keep the pipeline's forward-fill semantics.
        """
        if name in assessment.interpolated:
            return interpolate_series(samples, assessment.ts, te, name=name)
        return forward_fill_series(samples, assessment.ts, te, name=name)
