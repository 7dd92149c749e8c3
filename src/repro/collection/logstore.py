"""Retention-bounded raw-log store (LogStore stand-in).

Holds the per-query records PinSQL's root-cause analysis needs for the
anomaly window (the active-session estimator works on raw arrivals and
response times), and expires data older than the retention period —
the paper keeps three days by default.

Fleet support: a :class:`LogStore` built with an ``instance_id`` labels
its telemetry with the instance; :class:`PartitionedLogStore` manages
one such partition per instance behind a single retention policy and
shared accounting (total resident bytes, one expiry sweep).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.dbsim.query import QueryLog, SecondBatch, TemplateQueries
from repro.telemetry import MetricsRegistry, get_registry

__all__ = ["LogStore", "PartitionedLogStore"]

#: Default retention, in seconds (the paper's three days).
DEFAULT_RETENTION_S = 3 * 24 * 3600


class _SecondAggregate:
    """Per-second roll-up of one template, appended batch-by-batch.

    Keeps (second, #execution, total response ms, total examined rows)
    tuples in columnar lists so window aggregation reads pre-summed
    scalars instead of re-touching every raw arrival — the scheduled
    health sweeps aggregate the same window every interval, and raw
    concatenation made each sweep O(retention) instead of O(window).
    """

    __slots__ = ("_sec", "_count", "_tres", "_rows", "_n")

    def __init__(self) -> None:
        self._n = 0
        self._sec = np.empty(16, dtype=np.int64)
        self._count = np.empty(16, dtype=np.float64)
        self._tres = np.empty(16, dtype=np.float64)
        self._rows = np.empty(16, dtype=np.float64)

    def _grow(self, extra: int) -> None:
        need = self._n + extra
        if need <= len(self._sec):
            return
        cap = max(need, 2 * len(self._sec))
        for name in self.__slots__[:4]:
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def add_batch(self, batch: SecondBatch) -> None:
        seconds = batch.arrive_ms // 1000
        base = int(seconds[0])
        idx = seconds - base
        counts = np.bincount(idx)
        tres = np.bincount(idx, weights=batch.response_ms)
        rows = np.bincount(idx, weights=batch.examined_rows)
        nz = np.nonzero(counts)[0]
        self._grow(len(nz))
        dest = slice(self._n, self._n + len(nz))
        self._sec[dest] = base + nz
        self._count[dest] = counts[nz]
        self._tres[dest] = tres[nz]
        self._rows[dest] = rows[nz]
        self._n += len(nz)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = self._n
        return self._sec[:n], self._count[:n], self._tres[:n], self._rows[:n]


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
        self._batches: dict[str, list[SecondBatch]] = {}
        #: Per-template batch time index: first/last arrival of each
        #: batch, parallel to ``_batches[sql_id]``.  Streamed batches
        #: arrive in time order, so window reads bisect to the touched
        #: slice instead of masking the whole retention horizon — the
        #: difference between O(window) and O(retention) per read, which
        #: the scheduled health sweeps hit every interval.
        self._starts: dict[str, list[int]] = {}
        self._ends: dict[str, list[int]] = {}
        #: Whether a template's batches are chronological and
        #: non-overlapping (the streaming invariant); out-of-order
        #: ingestion clears it and reads fall back to the full scan.
        self._chronological: dict[str, bool] = {}
        #: Per-template per-second roll-ups feeding window aggregation.
        self._aggregates: dict[str, _SecondAggregate] = {}
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
        #: Silent de-vectorization alarm: window reads that could not
        #: use the chronological batch index (out-of-order ingestion)
        #: and fell back to scanning the whole retention horizon.
        self._m_fullscans = registry.counter(
            "logstore_fullscan_reads_total",
            help="Window reads that fell back to a full scan because a "
            "template's batches were ingested out of order.",
            **labels,
        )
        self._resident_bytes = 0

    def _account(self, batch: SecondBatch, sign: int) -> None:
        nbytes = (
            batch.arrive_ms.nbytes
            + batch.response_ms.nbytes
            + batch.examined_rows.nbytes
        )
        self._resident_bytes += sign * nbytes
        self._g_bytes.set(self._resident_bytes)
        self._g_templates.set(len(self._batches))

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _index_batch(self, sql_id: str, batch: SecondBatch) -> None:
        start, end = int(batch.arrive_ms[0]), int(batch.arrive_ms[-1])
        ends = self._ends.setdefault(sql_id, [])
        if ends and start < ends[-1]:
            self._chronological[sql_id] = False
        self._starts.setdefault(sql_id, []).append(start)
        ends.append(end)
        self._aggregates.setdefault(sql_id, _SecondAggregate()).add_batch(batch)

    def _reindex(self, sql_id: str) -> None:
        """Rebuild a template's batch index from its current batches."""
        self._drop_index(sql_id)
        for batch in self._batches.get(sql_id, []):
            self._index_batch(sql_id, batch)

    def _drop_index(self, sql_id: str) -> None:
        self._starts.pop(sql_id, None)
        self._ends.pop(sql_id, None)
        self._chronological.pop(sql_id, None)
        self._aggregates.pop(sql_id, None)

    def ingest_query_log(self, query_log: QueryLog) -> int:
        """Absorb a whole simulated query log; returns queries stored."""
        stored = 0
        for tq in query_log.iter_templates():
            if len(tq) == 0:
                continue
            batch = SecondBatch(
                sql_id=tq.sql_id,
                arrive_ms=tq.arrive_ms,
                response_ms=tq.response_ms,
                examined_rows=tq.examined_rows,
            )
            self._batches.setdefault(tq.sql_id, []).append(batch)
            self._index_batch(tq.sql_id, batch)
            self._m_batches.inc()
            self._m_queries.inc(len(batch))
            self._account(batch, +1)
            stored += len(batch)
        return stored

    def ingest_batch(self, batch: SecondBatch) -> None:
        if len(batch) == 0:
            return
        self._batches.setdefault(batch.sql_id, []).append(batch)
        self._index_batch(batch.sql_id, batch)
        self._m_batches.inc()
        self._m_queries.inc(len(batch))
        self._account(batch, +1)

    def ingest_block(self, block) -> int:
        """Absorb one columnar :class:`~repro.collection.blocks.QueryLogBlock`.

        The block is split into per-template, arrival-ordered batches in
        one vectorized pass (a single argsort over the block) and each
        batch goes through :meth:`ingest_batch`.  Returns queries stored.
        """
        stored = 0
        for batch in block.iter_template_batches():
            self.ingest_batch(batch)
            stored += len(batch)
        return stored

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @property
    def sql_ids(self) -> list[str]:
        return list(self._batches)

    @property
    def resident_bytes(self) -> int:
        """Approximate bytes of stored arrays."""
        return self._resident_bytes

    def total_queries(self) -> int:
        return sum(len(b) for batches in self._batches.values() for b in batches)

    def queries_in_window(self, sql_id: str, t0: int, t1: int) -> TemplateQueries:
        """Queries of a template arriving within [t0, t1) (seconds)."""
        batches = self._batches.get(sql_id, [])
        lo_ms, hi_ms = t0 * 1000, t1 * 1000
        indexed = self._chronological.get(sql_id, True)
        if indexed and batches:
            starts, ends = self._starts[sql_id], self._ends[sql_id]
            # Only batches overlapping the window; interior batches (all
            # arrivals inside it) skip the mask entirely.
            span = range(bisect_left(ends, lo_ms), bisect_left(starts, hi_ms))
        else:
            if batches:
                self._m_fullscans.inc()
            span = range(len(batches))
        arrives, resps, rows = [], [], []
        for i in span:
            batch = batches[i]
            if indexed and self._starts[sql_id][i] >= lo_ms and self._ends[sql_id][i] < hi_ms:
                arrives.append(batch.arrive_ms)
                resps.append(batch.response_ms)
                rows.append(batch.examined_rows)
                continue
            mask = (batch.arrive_ms >= lo_ms) & (batch.arrive_ms < hi_ms)
            if mask.any():
                arrives.append(batch.arrive_ms[mask])
                resps.append(batch.response_ms[mask])
                rows.append(batch.examined_rows[mask])
        if not arrives:
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0, dtype=np.float64)
            return TemplateQueries(sql_id, empty_i, empty_f, empty_f.copy())
        arrive = np.concatenate(arrives)
        resp = np.concatenate(resps)
        examined = np.concatenate(rows)
        order = np.argsort(arrive, kind="stable")
        return TemplateQueries(sql_id, arrive[order], resp[order], examined[order])

    def second_aggregates(
        self, sql_id: str, t0: int, t1: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-second (#execution, total_tres, total_examined_rows) over [t0, t1).

        Reads the pre-summed per-second roll-ups instead of the raw
        arrivals, so a window aggregation touches one scalar per active
        second rather than every stored query — the path the scheduled
        health sweeps and the case-assembly aggregation take.
        """
        n = t1 - t0
        if n <= 0:
            raise ValueError("t1 must exceed t0")
        agg = self._aggregates.get(sql_id)
        if agg is None:
            zeros = np.zeros(n, dtype=np.float64)
            return zeros, zeros.copy(), zeros.copy()
        sec, count, tres, rows = agg.arrays()
        if self._chronological.get(sql_id, True):
            lo = int(np.searchsorted(sec, t0, side="left"))
            hi = int(np.searchsorted(sec, t1, side="left"))
            sel = slice(lo, hi)
        else:
            self._m_fullscans.inc()
            sel = (sec >= t0) & (sec < t1)
        idx = sec[sel] - t0
        out_count = np.bincount(idx, weights=count[sel], minlength=n)
        out_tres = np.bincount(idx, weights=tres[sel], minlength=n)
        out_rows = np.bincount(idx, weights=rows[sel], minlength=n)
        return out_count, out_tres, out_rows

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def expire(self, now_s: int) -> int:
        """Drop records older than the retention period; returns dropped count."""
        cutoff_ms = (now_s - self.retention_s) * 1000
        dropped = 0
        for sql_id in list(self._batches):
            kept: list[SecondBatch] = []
            changed = False
            for batch in self._batches[sql_id]:
                mask = batch.arrive_ms >= cutoff_ms
                n_keep = int(mask.sum())
                dropped += len(batch) - n_keep
                if n_keep == len(batch):
                    kept.append(batch)
                    continue
                changed = True
                self._account(batch, -1)
                if n_keep > 0:
                    trimmed = SecondBatch(
                        sql_id=sql_id,
                        arrive_ms=batch.arrive_ms[mask],
                        response_ms=batch.response_ms[mask],
                        examined_rows=batch.examined_rows[mask],
                    )
                    kept.append(trimmed)
                    self._account(trimmed, +1)
            if kept:
                self._batches[sql_id] = kept
                if changed:
                    self._reindex(sql_id)
            else:
                del self._batches[sql_id]
                self._drop_index(sql_id)
        if dropped:
            self._m_evicted.inc(dropped)
        self._g_templates.set(len(self._batches))
        return dropped


class PartitionedLogStore:
    """Per-instance :class:`LogStore` partitions under one retention policy.

    The fleet service stores every instance's raw logs here; each
    partition keeps its own per-template batches (and instance-labelled
    telemetry) while retention expiry and resident-bytes accounting run
    across the whole fleet in one sweep — the shared LogStore cluster of
    the production deployment.
    """

    def __init__(
        self,
        retention_s: int = DEFAULT_RETENTION_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if retention_s <= 0:
            raise ValueError("retention_s must be positive")
        self.retention_s = int(retention_s)
        self._registry = registry or get_registry()
        self._partitions: dict[str, LogStore] = {}
        self._g_total_bytes = self._registry.gauge(
            "logstore_fleet_resident_bytes",
            help="Resident bytes summed over every instance partition.",
        )
        self._g_partitions = self._registry.gauge(
            "logstore_fleet_partitions",
            help="Instance partitions currently resident.",
        )

    @property
    def instance_ids(self) -> list[str]:
        return list(self._partitions)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._partitions

    def partition(self, instance_id: str) -> LogStore:
        """The instance's partition, created on first use."""
        store = self._partitions.get(instance_id)
        if store is None:
            store = LogStore(
                retention_s=self.retention_s,
                registry=self._registry,
                instance_id=instance_id,
            )
            self._partitions[instance_id] = store
            self._g_partitions.set(len(self._partitions))
        return store

    @property
    def resident_bytes(self) -> int:
        """Bytes resident across every partition."""
        return sum(p.resident_bytes for p in self._partitions.values())

    def total_queries(self) -> int:
        return sum(p.total_queries() for p in self._partitions.values())

    def expire(self, now_s: int) -> int:
        """One retention sweep over every partition; returns dropped count."""
        dropped = 0
        for store in self._partitions.values():
            dropped += store.expire(now_s)
        self._g_total_bytes.set(self.resident_bytes)
        return dropped
