"""Lock manager: metadata (MDL) locks and row locks.

Two lock effects matter to PinSQL's anomaly categories (paper Sec. II):

* **MDL locks** — a DDL statement (ALTER/CREATE/DROP...) holds an
  exclusive metadata lock on its table; every query on that table that
  arrives while the lock is held blocks ("Waiting for table metadata
  lock") until release, so sessions pile up sharply.
* **Row locks** — write templates hold row locks for their duration;
  co-table queries conflict probabilistically, adding lock-wait time and
  bumping the ``innodb_row_lock_waits`` / ``innodb_row_lock_time``
  counters.

The model's grain is one second: row-lock pressure is accounted, and
conflicts are sampled, per simulated second.  The manager works on a
block of consecutive seconds at a time: :meth:`LockManager.begin_block`
opens a (seconds × tables) pressure array, one
:meth:`LockManager.add_write_load` fills it with one ``bincount`` over
``second * n_tables + table``, and the engine makes one
:meth:`LockManager.row_lock_wait` and one :meth:`LockManager.mdl_wait`
call over all of the block's queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MdlLockWindow", "LockManager", "RowLockStats"]


@dataclass(frozen=True)
class MdlLockWindow:
    """An exclusive metadata lock held on ``table`` during [start, end) ms."""

    table: str
    start_ms: float
    end_ms: float

    def blocks_at(self, arrive_ms: np.ndarray) -> np.ndarray:
        """Boolean mask of arrivals that block on this lock."""
        return (arrive_ms >= self.start_ms) & (arrive_ms < self.end_ms)


@dataclass
class RowLockStats:
    """Row-lock counters (MySQL-style), one entry per second of a block."""

    waits: np.ndarray          # int64: queries that waited
    wait_time_ms: np.ndarray   # float64: their total wait


#: A table argument: one table name, or an array of table indices
#: (:meth:`LockManager.table_index`).
Tables = str | np.ndarray


class LockManager:
    """Tracks MDL windows and per-table row-lock pressure.

    Row-lock contention model: during one second, the *pressure* on a
    table is the expected number of concurrently held row locks,
    ``Σ (writes/s × hold_ms) / 1000``.  A query touching that table waits
    with probability ``1 − exp(−conflict_rate × pressure)`` and, when it
    waits, for an exponential time with the mean hold duration.  This is
    the standard mean-field approximation of lock queueing and produces
    the spike of row-lock metrics the paper's category-3(ii) describes.

    Tables are numbered on first use (:meth:`table_index`); pressure and
    its pressure-weighted hold are (seconds × tables) arrays over the
    current block's seconds and that numbering, so the engine accounts
    and samples a whole block in one call each.  Every method taking a
    table also takes a single table name, and every ``second`` (an index
    into the block) defaults to the block's first.
    """

    def __init__(self, conflict_rate: float = 0.08, max_wait_ms: float = 5_000.0) -> None:
        if conflict_rate < 0:
            raise ValueError("conflict_rate must be non-negative")
        self.conflict_rate = float(conflict_rate)
        self.max_wait_ms = float(max_wait_ms)
        self._mdl_windows: list[MdlLockWindow] = []
        self._table_ids: dict[str, int] = {}
        self._pressure = np.zeros((1, 0), dtype=np.float64)
        #: Σ pressure × hold_ms per (second, table); divided by the
        #: pressure it is the pressure-weighted mean hold time.
        self._hold_weight = np.zeros((1, 0), dtype=np.float64)

    # ------------------------------------------------------------------
    # Table numbering
    # ------------------------------------------------------------------
    def table_index(self, table: str) -> int:
        """The index of ``table`` in the pressure arrays (assigned on first use)."""
        idx = self._table_ids.get(table)
        if idx is None:
            idx = self._table_ids[table] = len(self._table_ids)
            column = np.zeros((len(self._pressure), 1))
            self._pressure = np.hstack((self._pressure, column))
            self._hold_weight = np.hstack((self._hold_weight, column))
        return idx

    def _indices(self, tables: Tables) -> np.ndarray:
        if isinstance(tables, str):
            return np.array([self.table_index(tables)], dtype=np.int64)
        return np.asarray(tables, dtype=np.int64)

    # ------------------------------------------------------------------
    # MDL locks
    # ------------------------------------------------------------------
    def acquire_mdl(self, table: str, start_ms: float, duration_ms: float) -> MdlLockWindow:
        """Register an exclusive MDL on ``table`` for ``duration_ms``."""
        if duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        self.table_index(table)
        window = MdlLockWindow(table, start_ms, start_ms + duration_ms)
        self._mdl_windows.append(window)
        return window

    def prune_mdl(self, now_ms: float) -> None:
        """Drop windows that ended before ``now_ms`` (keeps scans short)."""
        self._mdl_windows = [w for w in self._mdl_windows if w.end_ms > now_ms]

    def mdl_wait(self, table: Tables, arrive_ms: np.ndarray) -> np.ndarray:
        """Per-arrival MDL wait time (ms); zero when no lock blocks.

        ``table`` is the table of every arrival, or one table index per
        arrival.
        """
        arrive = np.asarray(arrive_ms, dtype=np.float64)
        wait = np.zeros(len(arrive), dtype=np.float64)
        if not self._mdl_windows:
            return wait
        tables = self._indices(table)
        for window in self._mdl_windows:
            mask = (tables == self._table_ids[window.table]) & window.blocks_at(arrive)
            wait[mask] = np.maximum(wait[mask], window.end_ms - arrive[mask])
        return wait

    # ------------------------------------------------------------------
    # Row locks
    # ------------------------------------------------------------------
    def begin_block(self, seconds: int = 1) -> None:
        """Start a block of ``seconds`` seconds with no row-lock pressure."""
        shape = (int(seconds), len(self._table_ids))
        self._pressure = np.zeros(shape, dtype=np.float64)
        self._hold_weight = np.zeros(shape, dtype=np.float64)

    def add_write_load(
        self,
        table: Tables,
        writes_per_second: float | np.ndarray,
        hold_ms: float | np.ndarray,
        second: int | np.ndarray = 0,
    ) -> None:
        """Account write traffic that holds row locks on ``table``.

        With an array of table indices, ``writes_per_second``,
        ``hold_ms`` and ``second`` are per entry; entries on one table in
        one second add up, in entry order.
        """
        writes = np.asarray(writes_per_second, dtype=np.float64)
        hold = np.asarray(hold_ms, dtype=np.float64)
        if (writes < 0).any() or (hold < 0).any():
            raise ValueError("write load must be non-negative")
        idx = self._indices(table)
        n_seconds, n_tables = self._pressure.shape
        cell = np.asarray(second, dtype=np.int64) * n_tables + idx
        added = np.broadcast_to(writes * hold / 1000.0, cell.shape)
        size = n_seconds * n_tables
        self._pressure += np.bincount(cell, weights=added, minlength=size).reshape(
            n_seconds, n_tables
        )
        self._hold_weight += np.bincount(
            cell, weights=added * hold, minlength=size
        ).reshape(n_seconds, n_tables)

    def pressure(self, table: str, second: int = 0) -> float:
        """Expected number of concurrently held row locks on ``table``."""
        idx = self._table_ids.get(table)
        return 0.0 if idx is None else float(self._pressure[second, idx])

    def row_lock_wait(
        self,
        table: Tables,
        n_queries: int | np.ndarray,
        rng: np.random.Generator,
        exclude_self_pressure: float | np.ndarray = 0.0,
        second: int | np.ndarray = 0,
    ) -> tuple[np.ndarray, RowLockStats]:
        """Sample row-lock waits for query groups touching ``table``.

        ``table``, ``n_queries``, ``exclude_self_pressure`` and
        ``second`` are one value or one entry per group (a template's
        queries in one second), with ``second`` non-decreasing.
        ``exclude_self_pressure`` removes the pressure a group itself
        contributes so a lone writer does not self-conflict at full
        rate.  Returns per-query wait times, groups concatenated in
        order, and the block's per-second counters.  Each second under
        net pressure draws one uniform per query, then one exponential
        per conflicted query; a second without net pressure draws
        nothing, so the draws equal a call per second.
        """
        idx = self._indices(table)
        counts = np.broadcast_to(np.asarray(n_queries, dtype=np.int64), idx.shape)
        sec = np.broadcast_to(np.asarray(second, dtype=np.int64), idx.shape)
        n_seconds = len(self._pressure)
        stats = RowLockStats(np.zeros(n_seconds, dtype=np.int64), np.zeros(n_seconds))
        waits = np.zeros(int(counts.sum()), dtype=np.float64)
        pressure = self._pressure[sec, idx]
        net = np.maximum(0.0, pressure - exclude_self_pressure)
        hot = net > 0
        if not hot.any():
            return waits, stats
        p_wait = (1.0 - np.exp(-self.conflict_rate * net)).repeat(counts)
        # `net > 0` implies `pressure > 0`: the mean hold is defined.
        hold = self._hold_weight[sec, idx] / np.where(pressure > 0, pressure, 1.0)
        # Waiting behind a queue of `net` holders on average.
        mean_wait = (hold * (1.0 + net / 2.0)).repeat(counts)
        ends = np.concatenate(([0], np.cumsum(counts)))
        bounds = ends[np.searchsorted(sec, np.arange(n_seconds + 1))].tolist()
        for s in np.unique(sec[hot]).tolist():
            lo, hi = bounds[s], bounds[s + 1]
            conflicted = rng.random(hi - lo) < p_wait[lo:hi]
            n_conflicted = int(conflicted.sum())
            if n_conflicted == 0:
                continue
            sampled = rng.standard_exponential(n_conflicted) * mean_wait[lo:hi][conflicted]
            second_waits = waits[lo:hi]
            second_waits[conflicted] = np.minimum(sampled, self.max_wait_ms)
            stats.waits[s] = n_conflicted
            stats.wait_time_ms[s] = second_waits.sum()
        return waits, stats
