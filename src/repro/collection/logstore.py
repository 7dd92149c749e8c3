"""Retention-bounded raw-log store (LogStore stand-in).

Holds the per-query records PinSQL's root-cause analysis needs for the
anomaly window (the active-session estimator works on raw arrivals and
response times), and expires data older than the retention period —
the paper keeps three days by default.

The rows live in one :class:`~repro.dbsim.query.QueryLog`, which keeps
each template's rows in arrival order.  A block is ingested as one
queued chunk (constant Python work per block).  The next read sorts the
queued chunks into the template columns in one pass, and so does an
ingest that leaves more chunks queued than there are templates, which
bounds the queue of a store that is rarely read.  Rows in order fill
the spare room at the end of their template's columns, and late,
reordered or duplicated rows are re-sorted with the rows they precede,
so the sort costs time in proportion to the queued rows.  A template's
window read is two ``searchsorted`` calls on its arrival column; a
window read of every template, or of an ``sql_ids`` list
(:meth:`LogStore.window`), is one such pair per template, then one
gather per column read.  Expiry is one
``searchsorted`` per template.  A store built with an ``instance_id``
labels its telemetry with the instance; every diagnosis engine owns
one.
"""

from __future__ import annotations

import numpy as np

from repro.dbsim.query import LogWindow, QueryLog, SecondBatch, TemplateQueries
from repro.telemetry import MetricsRegistry, get_registry

__all__ = ["LogStore"]

#: Default retention, in seconds (the paper's three days).
DEFAULT_RETENTION_S = 3 * 24 * 3600

#: Bytes per stored row: arrival (int64), response time and examined
#: rows (float64).
_ROW_BYTES = 8 + 8 + 8


class LogStore:
    """Stores raw query records with time-based expiry."""

    def __init__(
        self,
        retention_s: int = DEFAULT_RETENTION_S,
        registry: MetricsRegistry | None = None,
        instance_id: str = "",
    ) -> None:
        if retention_s <= 0:
            raise ValueError("retention_s must be positive")
        self.retention_s = int(retention_s)
        self.instance_id = instance_id
        self._log = QueryLog()
        #: Lower bound on the oldest resident arrival (ms), so an expiry
        #: with nothing due returns without touching the log.
        self._oldest_ms: int | None = None
        registry = registry or get_registry()
        labels = {"instance": instance_id} if instance_id else {}
        self._m_batches = registry.counter(
            "logstore_batches_ingested_total",
            help="Second-batches absorbed.",
            **labels,
        )
        self._m_queries = registry.counter(
            "logstore_queries_ingested_total",
            help="Raw query records absorbed.",
            **labels,
        )
        self._m_evicted = registry.counter(
            "logstore_evicted_queries_total",
            help="Query records dropped by retention expiry.",
            **labels,
        )
        self._g_bytes = registry.gauge(
            "logstore_resident_bytes",
            help="Approximate bytes of stored arrays.",
            **labels,
        )
        self._g_templates = registry.gauge(
            "logstore_templates",
            help="Distinct SQL templates resident.",
            **labels,
        )

    def _set_gauges(self) -> None:
        self._g_bytes.set(self.resident_bytes)
        self._g_templates.set(self._log.n_templates)

    def _ingested(self, batches: int, rows: int, oldest_ms: int) -> None:
        self._m_batches.inc(batches)
        self._m_queries.inc(rows)
        if self._oldest_ms is None or oldest_ms < self._oldest_ms:
            self._oldest_ms = oldest_ms
        self._set_gauges()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest_query_log(self, query_log: QueryLog) -> int:
        """Absorb a whole simulated query log; returns queries stored."""
        stored = query_log.total_queries
        if stored:
            oldest = None
            for tq in query_log.iter_templates():
                self._log.append(SecondBatch(
                    tq.sql_id, tq.arrive_ms, tq.response_ms, tq.examined_rows
                ))
                first = int(tq.arrive_ms[0])
                oldest = first if oldest is None else min(oldest, first)
            self._ingested(len(query_log.sql_ids), stored, oldest)
        return stored

    def ingest_batch(self, batch: SecondBatch) -> None:
        if len(batch) == 0:
            return
        self._log.append(batch)
        self._ingested(1, len(batch), int(batch.arrive_ms.min()))

    def ingest_block(self, block) -> int:
        """Absorb one columnar :class:`~repro.collection.blocks.QueryLogBlock`.

        The block is queued whole as one log chunk and sorted into the
        template columns on the next read, so the stored rows match
        :meth:`ingest_batch` of each of its templates' rows.  Once the
        queued chunks outnumber the templates they are folded at once:
        the queue stays within about one template-count of blocks, and
        each fold's per-template work is shared by at least that many.
        The counters and gauges move once per block (a batch per
        template present).  Returns queries stored.
        """
        data = block.data
        stored = len(data)
        if stored:
            template = data["template"]
            log = self._log
            log.append_chunk(
                block.sql_ids, template, data["arrive_ms"],
                data["response_ms"], data["examined_rows"],
            )
            if log.queued_chunks > log.n_templates:
                log.fold()
            present = np.count_nonzero(np.bincount(template))
            self._ingested(int(present), stored, int(data["arrive_ms"].min()))
        return stored

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @property
    def sql_ids(self) -> list[str]:
        return self._log.sql_ids

    @property
    def resident_bytes(self) -> int:
        """Bytes of the resident rows (spare column room not counted)."""
        return self._log.total_queries * _ROW_BYTES

    def total_queries(self) -> int:
        return self._log.total_queries

    def queries_in_window(self, sql_id: str, t0: int, t1: int) -> TemplateQueries:
        """Queries of a template arriving within [t0, t1) (seconds).

        Arrival-ordered read-only views (ties in ingest order).
        """
        tq = self._log.queries_of(sql_id)
        lo, hi = np.searchsorted(tq.arrive_ms, (t0 * 1000, t1 * 1000))
        return TemplateQueries(
            sql_id, tq.arrive_ms[lo:hi], tq.response_ms[lo:hi], tq.examined_rows[lo:hi]
        )

    def window(self, t0: int, t1: int, sql_ids: list[str] | None = None) -> LogWindow:
        """The queries of ``sql_ids`` (default: every template) arriving
        within [t0, t1) (seconds), with per-template offsets
        (:meth:`QueryLog.window`)."""
        return self._log.window(t0 * 1000, t1 * 1000, sql_ids)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def expire(self, now_s: int) -> int:
        """Drop records older than the retention period; returns dropped count."""
        cutoff_ms = (now_s - self.retention_s) * 1000
        if self._oldest_ms is None or cutoff_ms <= self._oldest_ms:
            return 0
        dropped, self._oldest_ms = self._log.drop_before(cutoff_ms)
        self._m_evicted.inc(dropped)
        self._set_gauges()
        return dropped
