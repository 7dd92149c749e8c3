"""Real-time anomaly detection over the metric stream.

The paper's Data Collection And Anomaly Detection module runs
"round-the-clock", consuming the collected metric stream and evoking the
root-cause modules the moment an anomaly is recognised.  This module is
that loop: a :class:`RealtimeAnomalyDetector` polls the broker's metric
topic, maintains a sliding window per metric, periodically re-runs the
two perception layers, and emits each anomaly exactly once (with
follow-up events when an ongoing anomaly grows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from repro.collection.quarantine import quarantine
from repro.collection.stream import Consumer
from repro.detection.basic import BasicPerception
from repro.detection.case_builder import CaseBuilder, DetectedAnomaly
from repro.detection.phenomenon import PhenomenonPerception
from repro.telemetry import MetricsRegistry, get_registry
from repro.timeseries import TimeSeries, forward_fill_series

__all__ = ["AnomalyEvent", "RealtimeAnomalyDetector", "snapshot_samples"]


def snapshot_samples(
    samples: Mapping[int, float], ts: int, te: int
) -> list[tuple[int, float]]:
    """Raw ``(timestamp, value)`` points with ``ts <= t < te``, sorted.

    This is the *triggering* evidence shape the incident flight
    recorder persists: the actual samples a detector buffer held, with
    gaps left as gaps — unlike the forward-filled series the pipeline
    consumes.
    """
    return sorted((t, v) for t, v in samples.items() if ts <= t < te)


@dataclass(frozen=True)
class AnomalyEvent:
    """One emission of the real-time detector."""

    anomaly: DetectedAnomaly
    detected_at: int          # stream time (max metric timestamp seen)
    is_update: bool = False   # True when extending a previously emitted anomaly
    instance_id: str = ""     # the monitored instance this anomaly belongs to


@dataclass
class _MetricBuffer:
    """Sliding per-metric sample buffer keyed by timestamp."""

    window_s: int
    samples: dict[int, float] = field(default_factory=dict)

    def add(self, timestamp: int, value: float) -> None:
        self.samples[timestamp] = value

    def series(self, now: int) -> TimeSeries | None:
        """Contiguous series over the window ending at ``now`` (inclusive).

        Missing samples are forward-filled; leading gaps shrink the
        window.  Returns None when fewer than a handful of samples exist.
        """
        cutoff = now - self.window_s
        timestamps = sorted(t for t in self.samples if cutoff < t <= now)
        if len(timestamps) < 8:
            return None
        return forward_fill_series(self.samples, timestamps[0], now + 1)


class RealtimeAnomalyDetector:
    """Streaming wrapper around the two perception layers.

    Parameters
    ----------
    consumer:
        Broker consumer positioned on the performance-metric topic
        (messages as produced by
        :class:`~repro.collection.collector.MetricsCollector`).
    window_s:
        Sliding analysis window length.
    evaluation_interval_s:
        How often (in stream time) the window is re-analysed.
    instance_id:
        Optional id of the monitored instance.  Detector state (buffers,
        stream time, emitted-anomaly dedup) is *always* private to one
        detector object — fleet deployments run one detector per
        instance — and the id stamps emitted events and labels the
        detector's own telemetry.
    """

    def __init__(
        self,
        consumer: Consumer,
        window_s: int = 1800,
        evaluation_interval_s: int = 60,
        basic: BasicPerception | None = None,
        phenomenon: PhenomenonPerception | None = None,
        case_builder: CaseBuilder | None = None,
        registry: MetricsRegistry | None = None,
        instance_id: str = "",
    ) -> None:
        if window_s <= 0 or evaluation_interval_s <= 0:
            raise ValueError("window_s and evaluation_interval_s must be positive")
        self.consumer = consumer
        self.window_s = int(window_s)
        self.evaluation_interval_s = int(evaluation_interval_s)
        self.instance_id = instance_id
        self._basic = basic or BasicPerception()
        self._phenomenon = phenomenon or PhenomenonPerception()
        self._builder = case_builder or CaseBuilder()
        self._buffers: dict[str, _MetricBuffer] = {}
        self._stream_time: int | None = None
        self._last_evaluation: int | None = None
        #: start → end of anomalies already emitted (for dedup/updates).
        self._emitted: dict[tuple[str, int], int] = {}
        registry = registry or get_registry()
        labels = {"instance": instance_id} if instance_id else {}
        self._m_points = registry.counter(
            "detector_points_consumed_total",
            help="Metric points consumed.",
            **labels,
        )
        self._m_evaluations = registry.counter(
            "detector_evaluations_total",
            help="Sliding-window re-analyses run.",
            **labels,
        )
        self._m_events_new = registry.counter(
            "detector_events_total",
            help="Anomaly events emitted.",
            kind="new",
            **labels,
        )
        self._m_events_update = registry.counter(
            "detector_events_total",
            help="Anomaly events emitted.",
            kind="update",
            **labels,
        )

    @property
    def stream_time(self) -> int | None:
        """Largest metric timestamp observed so far."""
        return self._stream_time

    def iter_buffer_samples(self) -> Iterator[tuple[str, Mapping[int, float]]]:
        """Read-only views of the per-metric raw sample buffers.

        Yields ``(metric_name, {timestamp: value})`` pairs in the order
        the metrics were first seen; the mappings are live read-only
        proxies (no copy), valid until the next :meth:`poll` or
        :meth:`drop_before`.  The buffers are the only copy of the
        instance's raw metric samples: case assembly reads them here and
        the buffers themselves stay private.
        """
        for name, buffer in self._buffers.items():
            yield name, MappingProxyType(buffer.samples)

    def drop_before(self, cutoff_s: int) -> int:
        """Drop every buffered sample with ``t < cutoff_s``; return how
        many were dropped.

        The detector never forgets on its own: its owner bounds the
        buffers to the evidence a case can still reference, the way
        :meth:`~repro.collection.logstore.LogStore.expire` bounds raw
        query rows.
        """
        dropped = 0
        for buffer in self._buffers.values():
            stale = [t for t in buffer.samples if t < cutoff_s]
            for t in stale:
                del buffer.samples[t]
            dropped += len(stale)
        return dropped

    def window_snapshot(self, ts: int, te: int) -> dict[str, list[tuple[int, float]]]:
        """Per-metric raw samples within ``[ts, te)`` (metrics with none
        are omitted).  Evidence capture for the incident recorder and
        the health sweeper."""
        out: dict[str, list[tuple[int, float]]] = {}
        for name, buffer in self._buffers.items():
            points = snapshot_samples(buffer.samples, ts, te)
            if points:
                out[name] = points
        return out

    def window_values(self, ts: int, te: int) -> dict[str, np.ndarray]:
        """Per-metric sample values within ``[ts, te)``, in time order
        (metrics with none are omitted): the values of
        :meth:`window_snapshot` as one array per metric, read from each
        buffer with no Python work per sample.  The health sweeper's
        trend checks read these."""
        out: dict[str, np.ndarray] = {}
        for name, buffer in self._buffers.items():
            samples = buffer.samples
            times = np.fromiter(samples, dtype=np.int64, count=len(samples))
            values = np.fromiter(samples.values(), dtype=np.float64, count=len(samples))
            keep = (times >= ts) & (times < te)
            times, values = times[keep], values[keep]
            if (times[1:] < times[:-1]).any():
                values = values[np.argsort(times, kind="stable")]
            if len(values):
                out[name] = values
        return out

    def poll(self, max_messages: int = 10_000) -> list[AnomalyEvent]:
        """Consume available metric points; return newly detected anomalies.

        Every message carries one
        :class:`~repro.collection.blocks.MetricBlock` (one block = many
        samples); malformed blocks and non-block payloads are
        quarantined, never raised.  Blocks that ``publish_block``
        validated are not validated again.
        """
        from repro.collection.blocks import MetricBlock, validate_metric_block

        messages = self.consumer.poll(max_messages)
        points = 0
        for message in messages:
            record = message.value
            if not (message.validated and isinstance(record, MetricBlock)):
                reason = validate_metric_block(record)
                if reason is not None:
                    # Malformed payloads must not crash the poll loop: park
                    # them on the dead-letter topic and keep consuming.
                    quarantine(
                        self.consumer.broker, self.consumer.topic, record, reason
                    )
                    continue
            if self.instance_id and record.instance and record.instance != self.instance_id:
                continue
            block_max = -1
            for name, ts, values in record.iter_metric_series():
                buffer = self._buffers.get(name)
                if buffer is None:
                    buffer = _MetricBuffer(self.window_s)
                    self._buffers[name] = buffer
                buffer.samples.update(zip(ts, values))
                block_max = max(block_max, ts[-1])
            if self._stream_time is None or block_max > self._stream_time:
                self._stream_time = block_max
            points += len(record)
        if points:
            self._m_points.inc(points)
        if self._stream_time is None:
            return []
        due = (
            self._last_evaluation is None
            or self._stream_time - self._last_evaluation >= self.evaluation_interval_s
        )
        if not due:
            return []
        self._last_evaluation = self._stream_time
        return self._evaluate(self._stream_time)

    # ------------------------------------------------------------------
    def _evaluate(self, now: int) -> list[AnomalyEvent]:
        self._m_evaluations.inc()
        features = []
        for name, buffer in self._buffers.items():
            series = buffer.series(now)
            if series is not None:
                features.extend(self._basic.perceive_series(name, series))
        if not features:
            return []
        phenomena = self._phenomenon.recognise(features)
        anomalies = self._builder.build(phenomena)
        events: list[AnomalyEvent] = []
        for anomaly in anomalies:
            key = self._key_for(anomaly)
            previous_end = self._emitted.get(key)
            if previous_end is None:
                self._emitted[key] = anomaly.end
                events.append(
                    AnomalyEvent(anomaly, detected_at=now, instance_id=self.instance_id)
                )
                self._m_events_new.inc()
            elif anomaly.end > previous_end + self.evaluation_interval_s:
                self._emitted[key] = anomaly.end
                events.append(
                    AnomalyEvent(
                        anomaly,
                        detected_at=now,
                        is_update=True,
                        instance_id=self.instance_id,
                    )
                )
                self._m_events_update.inc()
        return events

    def _key_for(self, anomaly: DetectedAnomaly) -> tuple[str, int]:
        """Dedup key: anomaly type set + coarse start bucket.

        The detected start can wobble by a few samples between
        evaluations; bucketing by the evaluation interval absorbs that.
        """
        bucket = anomaly.start // max(self.evaluation_interval_s, 1)
        return ("|".join(anomaly.types), int(bucket))
