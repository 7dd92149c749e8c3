"""Windowed stream aggregation (Flink stand-in).

Rolls raw query records up into per-template metric time series:
``#execution`` (count), ``total_tres`` (summed response time),
``avg_tres`` and ``total_examined_rows``, at 1-second granularity with
on-demand 1-minute resampling — the ``metricQ,t = Aggregate({...})``
operation of paper Section IV-A.

A :class:`TemplateMetricStore` holds one dense ``templates × seconds``
matrix per metric, rows in ``sql_ids`` order, and every PinSQL stage
reads its rows or whole matrices in place.  Two paths fill it through
one helper that aggregates a window with one ``bincount`` per metric
over ``row * n_seconds + second``: :func:`aggregate_query_log` (batch
aggregation straight from a :class:`QueryLog`) and
:func:`aggregate_logstore` (LogStore window reads).  Both read every
template's in-window rows through one :meth:`QueryLog.window`.  The
streaming path is the diagnosis engine's: it drains the broker's
query-log blocks into its LogStore and aggregates the case window with
:func:`aggregate_logstore`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.dbsim.query import LogWindow, QueryLog
from repro.timeseries import TimeSeries

__all__ = [
    "TEMPLATE_METRICS",
    "TemplateMetricStore",
    "aggregate_query_log",
    "aggregate_logstore",
]

#: The per-template metrics the aggregation pipeline materialises.
TEMPLATE_METRICS = ("#execution", "total_tres", "avg_tres", "total_examined_rows")


class TemplateMetricStore:
    """Per-template metric series over a fixed window [start, end).

    One float64 ``(len(sql_ids), length)`` matrix per metric of
    :data:`TEMPLATE_METRICS`; row ``index[sql_id]`` is that template's
    series.  A metric left out of ``matrices`` is all zeros.
    """

    def __init__(
        self,
        start: int,
        end: int,
        interval: int = 1,
        sql_ids: Sequence[str] = (),
        matrices: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        self.start = int(start)
        self.end = int(end)
        self.interval = int(interval)
        #: Template ids in row order, and ``sql_id → row``.
        self.sql_ids = list(sql_ids)
        self.index = {sql_id: row for row, sql_id in enumerate(self.sql_ids)}
        shape = (len(self.sql_ids), self.length)
        matrices = matrices or {}
        self._matrices = {
            metric: np.asarray(matrices[metric], dtype=np.float64)
            if metric in matrices
            else np.zeros(shape)
            for metric in TEMPLATE_METRICS
        }
        for metric, matrix in self._matrices.items():
            if matrix.shape != shape:
                raise ValueError(f"{metric} matrix {matrix.shape} does not match the store's {shape}")

    @classmethod
    def from_series(
        cls,
        start: int,
        end: int,
        series: Mapping[str, Mapping[str, np.ndarray]],
        interval: int = 1,
    ) -> "TemplateMetricStore":
        """A store from ``sql_id → {metric → values}``, rows in ``series`` order."""
        store = cls(start, end, interval, sql_ids=series)
        for row, metrics in enumerate(series.values()):
            for metric, values in metrics.items():
                if len(values) != store.length:
                    raise ValueError(
                        f"series length {len(values)} does not match store window {store.length}"
                    )
                store.matrix(metric)[row] = values
        return store

    @property
    def length(self) -> int:
        return (self.end - self.start) // self.interval

    def __contains__(self, sql_id: str) -> bool:
        return sql_id in self.index

    def __len__(self) -> int:
        return len(self.sql_ids)

    def matrix(self, metric: str) -> np.ndarray:
        """The ``templates × length`` matrix of one metric (not a copy)."""
        return self._matrices[metric]

    def get(self, sql_id: str, metric: str) -> TimeSeries:
        """The metric series of one template: a view of its row (zeros if never seen)."""
        row = self.index.get(sql_id)
        values = np.zeros(self.length) if row is None else self._matrices[metric][row]
        return TimeSeries(values, self.start, self.interval, metric)

    def executions(self, sql_id: str) -> TimeSeries:
        return self.get(sql_id, "#execution")

    def total_response_time(self, sql_id: str) -> TimeSeries:
        return self.get(sql_id, "total_tres")

    def resample(
        self, factor: int, metrics: tuple[str, ...] | None = None
    ) -> "TemplateMetricStore":
        """Downsample every series (e.g. 60 → 1-minute granularity).

        One reshape-sum per matrix (a reshape-mean for ``avg_tres``);
        trailing seconds that do not fill a bucket are dropped.
        ``metrics`` restricts the copy to those metrics (the rest are
        zeros; default: all).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        buckets = self.length // factor
        matrices = {}
        for metric in TEMPLATE_METRICS if metrics is None else metrics:
            blocks = self._matrices[metric][:, : buckets * factor].reshape(
                len(self.sql_ids), buckets, factor
            )
            matrices[metric] = blocks.mean(axis=2) if metric == "avg_tres" else blocks.sum(axis=2)
        return TemplateMetricStore(
            self.start,
            self.start + buckets * factor * self.interval,
            self.interval * factor,
            self.sql_ids,
            matrices,
        )


def _aggregate(
    start: int, end: int, sql_ids: Sequence[str], counts: np.ndarray, window: LogWindow
) -> TemplateMetricStore:
    """A 1 s store over [start, end): row ``r`` (``sql_ids[r]``) aggregates
    the next ``counts[r]`` rows of ``window``'s columns, a template's rows
    arriving inside the window, in arrival order.

    Each metric is one ``bincount`` over ``row * n + second`` across all
    rows; a cell sums its rows in arrival order, as a per-template
    ``bincount`` would.
    """
    n = end - start
    shape = (len(sql_ids), n)
    # ``row * n - start`` joins each arrival in milliseconds before the
    # floor division, which is exact in integers: the cell index takes
    # one array, and the window's columns are read one at a time.
    cell = np.repeat((np.arange(len(sql_ids), dtype=np.int64) * n - start) * 1000, counts)
    cell += window.arrive_ms
    cell //= 1000

    def total(weights: np.ndarray | None) -> np.ndarray:
        return np.bincount(cell, weights=weights, minlength=n * len(sql_ids)).reshape(shape)

    count = total(None).astype(np.float64)
    total_tres = total(window.response_ms)
    # Empty seconds have zero total_tres, so their average is 0 / 1 = 0.
    return TemplateMetricStore(
        start,
        end,
        sql_ids=sql_ids,
        matrices={
            "#execution": count,
            "total_tres": total_tres,
            "avg_tres": total_tres / np.maximum(count, 1.0),
            "total_examined_rows": total(window.examined_rows),
        },
    )


def aggregate_query_log(query_log: QueryLog, start: int, end: int) -> TemplateMetricStore:
    """Batch-aggregate a query log into per-template series over [start, end).

    Every template of the log gets a row, with or without rows in the window.
    """
    if end <= start:
        raise ValueError("end must exceed start")
    window = query_log.window(start * 1000, end * 1000)
    return _aggregate(start, end, window.sql_ids, window.counts, window)


def aggregate_logstore(logstore, start: int, end: int) -> TemplateMetricStore:
    """Batch-aggregate a :class:`~repro.collection.logstore.LogStore` window.

    Same output as :func:`aggregate_query_log` over the rows arriving in
    [start, end), read in one :meth:`~repro.collection.logstore.LogStore.window`
    call — the path the always-on diagnosis service takes when an
    anomaly fires and the case window must be assembled, and the
    scheduled health sweeps take every interval.  Templates with no rows
    in the window are left out.
    """
    if end <= start:
        raise ValueError("end must exceed start")
    window = logstore.window(start, end)
    counts = window.counts
    present = np.flatnonzero(counts).tolist()
    return _aggregate(
        start, end, [window.sql_ids[i] for i in present], counts[present], window
    )
