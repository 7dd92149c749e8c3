"""Columnar query-log storage.

Each simulated block of seconds the engine appends one columnar chunk
to a :class:`QueryLog`: a template code per query plus the arrival,
response and examined-rows columns of every query that arrived in it.
A streaming store appends each block it ingests as one chunk too.  The
next read (or :meth:`QueryLog.fold`) sorts the queued chunks into one
arrival-ordered column set per template in one grouping pass, so a log
built before it is read, as the simulator's is, gets columns of exactly
its rows.  Rows in order fill the spare room of their template's
columns, and late rows are re-sorted with the resident rows they
precede.  A :class:`SecondBatch` (one template's queries) goes straight
into its template's columns in the same way.  Ties in arrival time keep
ingest order.  Per-template reads are slices
(:class:`TemplateQueries`, read-only views that later appends leave
unchanged) for the collection pipeline and the active-session
estimator.  For each query ``q`` the log records ``t(q)`` (arrival,
ms), ``tres(q)`` (response time, ms) and ``#examined_rows(q)`` —
exactly the fields the paper collects (Def II.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["SecondBatch", "QueryLog", "TemplateQueries"]


@dataclass(frozen=True)
class SecondBatch:
    """Per-query observations of one template during one second."""

    sql_id: str
    arrive_ms: np.ndarray      # int64 epoch milliseconds
    response_ms: np.ndarray    # float64
    examined_rows: np.ndarray  # float64

    def __post_init__(self) -> None:
        n = len(self.arrive_ms)
        if not (len(self.response_ms) == n == len(self.examined_rows)):
            raise ValueError("batch arrays must share a length")

    def __len__(self) -> int:
        return len(self.arrive_ms)


@dataclass(frozen=True)
class TemplateQueries:
    """All logged queries of one template, concatenated and time-ordered.

    From a :class:`QueryLog` the arrays are read-only views of the log's
    columns (later appends do not change them): copy before modifying.
    """

    sql_id: str
    arrive_ms: np.ndarray
    response_ms: np.ndarray
    examined_rows: np.ndarray

    def __len__(self) -> int:
        return len(self.arrive_ms)

    @property
    def end_ms(self) -> np.ndarray:
        return self.arrive_ms + self.response_ms


class QueryLog:
    """Per-template columns of logged queries, in arrival order.

    ``sql_ids`` (and so ``iter_templates``) lists the templates holding
    rows, in the order in which they first logged a query.
    """

    def __init__(self) -> None:
        #: Column index of each template holding rows, in first-appearance
        #: order.
        self._codes: dict[str, int] = {}
        #: Each template's rows, indexed by code.
        self._columns: list[_Column] = []
        #: Chunks appended since the last read:
        #: ``(template code, arrive_ms, response_ms, examined_rows)``.
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._count = 0
        #: Code of each entry of a chunk dictionary (``sql_ids`` tuple)
        #: whose templates are all registered; emptied when codes go.
        self._luts: dict[tuple[str, ...], np.ndarray] = {}

    def _code(self, sql_id: str) -> int:
        code = self._codes.get(sql_id)
        if code is None:
            code = self._codes[sql_id] = len(self._columns)
            self._columns.append(_Column())
        return code

    def append(self, batch: SecondBatch) -> None:
        """Append one template's queries straight into its column."""
        n = len(batch)
        if n == 0:
            return
        self.fold()
        arrive = np.asarray(batch.arrive_ms, dtype=np.int64)
        response = np.asarray(batch.response_ms, dtype=np.float64)
        rows = np.asarray(batch.examined_rows, dtype=np.float64)
        if (arrive[1:] < arrive[:-1]).any():
            order = np.argsort(arrive, kind="stable")
            arrive, response, rows = arrive[order], response[order], rows[order]
        self._columns[self._code(batch.sql_id)].extend(arrive, response, rows)
        self._count += n

    def append_chunk(
        self,
        sql_ids: Sequence[str],
        template: np.ndarray,
        arrive_ms: np.ndarray,
        response_ms: np.ndarray,
        examined_rows: np.ndarray,
    ) -> None:
        """Queue one chunk of queries; ``template[i]`` indexes ``sql_ids``.

        Templates new to the log are registered in ``sql_ids`` order, so
        ``sql_ids``, ``n_templates`` and ``total_queries`` count the chunk
        at once.  The chunk is sorted into the columns by the next read
        or :meth:`fold`.
        """
        n = len(arrive_ms)
        if not (len(template) == len(response_ms) == n == len(examined_rows)):
            raise ValueError("chunk columns must share a length")
        if n == 0:
            return
        lut = self._luts.get(sql_ids) if isinstance(sql_ids, tuple) else None
        if lut is None:
            lut = self._lut(sql_ids, template)
        # A structured block's fields are strided views: copy them, so a
        # column never adopts a strided array (``searchsorted`` would
        # copy it whole on every read).
        self._pending.append((
            lut[template],
            np.ascontiguousarray(arrive_ms, dtype=np.int64),
            np.ascontiguousarray(response_ms, dtype=np.float64),
            np.ascontiguousarray(examined_rows, dtype=np.float64),
        ))
        self._count += n

    def _lut(self, sql_ids: Sequence[str], template: np.ndarray) -> np.ndarray:
        """Codes of ``sql_ids``, registering the templates ``template``
        uses; remembered once every entry has a code."""
        codes = [self._codes.get(s, -1) for s in sql_ids]
        if -1 in codes:
            present = np.bincount(template, minlength=len(sql_ids)) > 0
            for i in np.flatnonzero(present).tolist():
                if codes[i] < 0:
                    codes[i] = self._code(sql_ids[i])
        lut = np.array(codes, dtype=np.int32)
        if isinstance(sql_ids, tuple) and -1 not in codes:
            if len(self._luts) >= _MAX_LUTS:
                self._luts.clear()
            self._luts[sql_ids] = lut
        return lut

    @property
    def queued_chunks(self) -> int:
        """Chunks appended since the last read or fold."""
        return len(self._pending)

    def fold(self) -> None:
        """Sort the queued chunks into the template columns (one grouping
        pass over all of them)."""
        if not self._pending:
            return
        if len(self._pending) == 1:
            chunk = self._pending[0]
        else:
            chunk = tuple(np.concatenate(col) for col in zip(*self._pending))
        self._pending = []
        bounds, arrive, response, rows = _group_columns(*chunk, len(self._columns))
        for code in np.flatnonzero(np.diff(bounds)).tolist():
            lo, hi = int(bounds[code]), int(bounds[code + 1])
            self._columns[code].extend(arrive[lo:hi], response[lo:hi], rows[lo:hi])

    @property
    def total_queries(self) -> int:
        return self._count

    @property
    def sql_ids(self) -> list[str]:
        return list(self._codes)

    @property
    def n_templates(self) -> int:
        """Number of templates holding rows (``len(sql_ids)``, no list)."""
        return len(self._codes)

    def __contains__(self, sql_id: str) -> bool:
        return sql_id in self._codes

    def queries_of(self, sql_id: str) -> TemplateQueries:
        """Arrival-ordered observations of one template (read-only views)."""
        self.fold()
        code = self._codes.get(sql_id)
        if code is None:
            return TemplateQueries(sql_id, *_NO_ROWS)
        return TemplateQueries(sql_id, *self._columns[code].views())

    def iter_templates(self) -> Iterator[TemplateQueries]:
        for sql_id in self.sql_ids:
            yield self.queries_of(sql_id)

    def all_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """(arrive_ms, end_ms) over every logged query, unordered."""
        self.fold()
        arrive = np.concatenate([_NO_ROWS[0], *(c.live(0) for c in self._columns)])
        end = np.concatenate([_NO_ROWS[1], *(c.live(0) + c.live(1) for c in self._columns)])
        return arrive, end

    def drop_before(self, cutoff_ms: int) -> tuple[int, int | None]:
        """Drop the rows arriving before ``cutoff_ms``.

        Returns the number dropped and the earliest remaining arrival
        (None when the log is empty).  Emptied templates leave ``sql_ids``.
        """
        self.fold()
        dropped, oldest = 0, None
        for sql_id, code in list(self._codes.items()):
            col = self._columns[code]
            dropped += col.drop_before(cutoff_ms)
            if not len(col):
                del self._codes[sql_id]
                self._luts.clear()
                continue
            first = int(col.cols[0][col.start])
            oldest = first if oldest is None else min(oldest, first)
        self._count -= dropped
        return dropped, oldest


class _Column:
    """One template's rows in arrival order (ties in append order).

    The rows live at ``[start, stop)`` of three arrays (arrival, response,
    examined rows); in-order appends fill the room past ``stop``, so
    they cost time in proportion to the appended rows.  Rows below
    ``shared`` may be seen by a caller — a read handed out views of
    them, or the arrays were adopted from an append — so they are never
    written in place.
    """

    __slots__ = ("cols", "start", "stop", "shared")

    def __init__(self) -> None:
        self.cols: Sequence[np.ndarray] = _NO_ROWS
        self.start = self.stop = self.shared = 0

    def __len__(self) -> int:
        return self.stop - self.start

    def live(self, i: int) -> np.ndarray:
        return self.cols[i][self.start:self.stop]

    def views(self) -> tuple[np.ndarray, ...]:
        self.shared = self.stop
        return _read_only(*(self.live(i) for i in range(3)))

    def extend(self, *new: np.ndarray) -> None:
        """Append arrival-ordered rows (ties after the resident rows)."""
        if not len(self):
            self.cols, self.start, self.stop = new, 0, len(new[0])
            self.shared = self.stop
            return
        pos, arrive = self.stop, self.cols[0]
        if new[0][0] < arrive[pos - 1]:
            # Late rows: re-sort them with the resident rows they precede.
            pos = self.start + int(np.searchsorted(self.live(0), new[0][0], side="right"))
            merged = [np.concatenate((old[pos:self.stop], col)) for old, col in zip(self.cols, new)]
            order = np.argsort(merged[0], kind="stable")
            new = tuple(col[order] for col in merged)
        end = pos + len(new[0])
        if pos < self.shared or end > len(arrive):
            self._move(pos, 2 * (end - self.start))
            pos, end = self.stop, self.stop + len(new[0])
        for col, rows in zip(self.cols, new):
            col[pos:end] = rows
        self.stop = end

    def drop_before(self, cutoff_ms: int) -> int:
        """Drop the rows arriving before ``cutoff_ms``; returns how many."""
        cut = int(np.searchsorted(self.live(0), cutoff_ms))
        self.start += cut
        if self.start > len(self):
            # More dead rows than live ones: release the dead prefix.
            self._move(self.stop, 2 * len(self))
        return cut

    def _move(self, keep: int, capacity: int) -> None:
        """Copy rows ``[start, keep)`` into fresh arrays of ``capacity``."""
        n = keep - self.start
        fresh = [np.empty(capacity, dtype=col.dtype) for col in self.cols]
        for out, col in zip(fresh, self.cols):
            out[:n] = col[self.start:keep]
        self.cols, self.start, self.stop, self.shared = fresh, 0, n, 0


def _read_only(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    for col in columns:
        col.setflags(write=False)
    return columns


#: Chunk dictionaries whose codes a :class:`QueryLog` remembers.
_MAX_LUTS = 64

_NO_ROWS = _read_only(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))


def _group_columns(
    codes: np.ndarray,
    arrive: np.ndarray,
    response: np.ndarray,
    rows: np.ndarray,
    n_codes: int,
) -> tuple[np.ndarray, ...]:
    """Per-code bounds plus the columns grouped by code, then arrival,
    keeping ties in row order.

    Columns that are already grouped (codes non-decreasing, arrivals
    ordered within each code) are kept as they are, without a copy.
    Otherwise a stable sort by code keeps each template's rows in row
    order, which is arrival order whenever seconds were appended in time
    order; failing that, a stable (code, arrival) sort follows.
    """
    order = None
    if (codes[1:] < codes[:-1]).any():
        order = np.argsort(codes, kind="stable")
        codes, arrive = codes[order], arrive[order]
    if ((codes[1:] == codes[:-1]) & (arrive[1:] < arrive[:-1])).any():
        resort = np.lexsort((arrive, codes))
        order = resort if order is None else order[resort]
        codes, arrive = codes[resort], arrive[resort]
    if order is not None:
        response, rows = response[order], rows[order]
    counts = np.bincount(codes, minlength=n_codes)
    return np.concatenate(([0], np.cumsum(counts))), arrive, response, rows
