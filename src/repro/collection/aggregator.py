"""Windowed stream aggregation (Flink stand-in).

Rolls raw query records up into per-template metric time series:
``#execution`` (count), ``total_tres`` (summed response time),
``avg_tres`` and ``total_examined_rows``, at 1-second granularity with
on-demand 1-minute resampling — the ``metricQ,t = Aggregate({...})``
operation of paper Section IV-A.

Two paths produce identical results through one per-template
``bincount`` helper: :func:`aggregate_query_log` (batch aggregation
straight from a :class:`QueryLog`) and :func:`aggregate_logstore`
(LogStore window reads).  The streaming path is the diagnosis engine's:
it drains the broker's query-log blocks into its LogStore and
aggregates the case window with :func:`aggregate_logstore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dbsim.query import QueryLog
from repro.timeseries import TimeSeries

__all__ = [
    "TEMPLATE_METRICS",
    "TemplateMetricStore",
    "aggregate_query_log",
    "aggregate_logstore",
]

#: The per-template metrics the aggregation pipeline materialises.
TEMPLATE_METRICS = ("#execution", "total_tres", "avg_tres", "total_examined_rows")


@dataclass
class TemplateMetricStore:
    """Per-template metric series over a fixed window [start, end)."""

    start: int
    end: int
    interval: int = 1
    _data: dict[str, dict[str, TimeSeries]] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return (self.end - self.start) // self.interval

    @property
    def sql_ids(self) -> list[str]:
        return list(self._data)

    def __contains__(self, sql_id: str) -> bool:
        return sql_id in self._data

    def __len__(self) -> int:
        return len(self._data)

    def put(self, sql_id: str, metric: str, series: TimeSeries) -> None:
        if len(series) != self.length:
            raise ValueError(
                f"series length {len(series)} does not match store window {self.length}"
            )
        self._data.setdefault(sql_id, {})[metric] = series

    def get(self, sql_id: str, metric: str) -> TimeSeries:
        """The metric series of one template (zeros if never seen)."""
        template = self._data.get(sql_id)
        if template is None or metric not in template:
            return TimeSeries.zeros(
                self.length, start=self.start, interval=self.interval, name=metric
            )
        return template[metric]

    def executions(self, sql_id: str) -> TimeSeries:
        return self.get(sql_id, "#execution")

    def total_response_time(self, sql_id: str) -> TimeSeries:
        return self.get(sql_id, "total_tres")

    def resample(
        self, factor: int, metrics: tuple[str, ...] | None = None
    ) -> "TemplateMetricStore":
        """Downsample every series (e.g. 60 → 1-minute granularity).

        ``metrics`` restricts the copy to those metrics (default: all).
        """
        usable = (self.length // factor) * factor * self.interval
        out = TemplateMetricStore(
            start=self.start, end=self.start + usable, interval=self.interval * factor
        )
        for sql_id, template in self._data.items():
            for metric, series in template.items():
                if metrics is not None and metric not in metrics:
                    continue
                how = "mean" if metric == "avg_tres" else "sum"
                out.put(sql_id, metric, series.resample(factor, how=how))
        return out

    def window(self, t0: int, t1: int) -> "TemplateMetricStore":
        """Restrict every series to [t0, t1)."""
        t0 = max(t0, self.start)
        t1 = min(t1, self.end)
        out = TemplateMetricStore(start=t0, end=t1, interval=self.interval)
        for sql_id, metrics in self._data.items():
            for metric, series in metrics.items():
                out.put(sql_id, metric, series.window(t0, t1))
        return out


def _store_from_arrays(
    store: TemplateMetricStore,
    sql_id: str,
    seconds: np.ndarray,
    response_ms: np.ndarray,
    examined_rows: np.ndarray,
) -> None:
    """Aggregate one template's raw arrays into the store (1 s interval).

    ``seconds`` is sorted (rows in arrival order), so the rows inside the
    store's window are one slice.
    """
    n = store.length
    lo, hi = np.searchsorted(seconds, (store.start, store.start + n))
    idx = seconds[lo:hi] - store.start
    count = np.bincount(idx, minlength=n).astype(np.float64)
    total_tres = np.bincount(idx, weights=response_ms[lo:hi], minlength=n)
    total_rows = np.bincount(idx, weights=examined_rows[lo:hi], minlength=n)
    # Empty seconds have zero total_tres, so their average is 0 / 1 = 0.
    avg = total_tres / np.maximum(count, 1.0)
    store.put(sql_id, "#execution", TimeSeries(count, store.start, store.interval, "#execution"))
    store.put(sql_id, "total_tres", TimeSeries(total_tres, store.start, store.interval, "total_tres"))
    store.put(sql_id, "avg_tres", TimeSeries(avg, store.start, store.interval, "avg_tres"))
    store.put(
        sql_id,
        "total_examined_rows",
        TimeSeries(total_rows, store.start, store.interval, "total_examined_rows"),
    )


def aggregate_query_log(query_log: QueryLog, start: int, end: int) -> TemplateMetricStore:
    """Batch-aggregate a query log into per-template series over [start, end)."""
    if end <= start:
        raise ValueError("end must exceed start")
    store = TemplateMetricStore(start=start, end=end, interval=1)
    for tq in query_log.iter_templates():
        seconds = tq.arrive_ms // 1000
        _store_from_arrays(store, tq.sql_id, seconds, tq.response_ms, tq.examined_rows)
    return store


def aggregate_logstore(logstore, start: int, end: int) -> TemplateMetricStore:
    """Batch-aggregate a :class:`~repro.collection.logstore.LogStore` window.

    Same output as :func:`aggregate_query_log` over the rows arriving in
    [start, end), read through ``queries_in_window`` — the path the
    always-on diagnosis service takes when an anomaly fires and the case
    window must be assembled, and the scheduled health sweeps take every
    interval.  Templates with no rows in the window are left out.
    """
    if end <= start:
        raise ValueError("end must exceed start")
    store = TemplateMetricStore(start=start, end=end, interval=1)
    for sql_id in logstore.sql_ids:
        tq = logstore.queries_in_window(sql_id, start, end)
        if len(tq):
            seconds = tq.arrive_ms // 1000
            _store_from_arrays(store, sql_id, seconds, tq.response_ms, tq.examined_rows)
    return store

