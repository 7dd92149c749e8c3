"""Columnar query-log storage.

Each simulated second the engine appends one columnar chunk to a
:class:`QueryLog`: a template code per query plus the arrival, response
and examined-rows columns of every query that arrived in that second.
A :class:`SecondBatch` (one template's queries) appends as a one-template
chunk.  The first read groups all chunks by template, once, and caches
the grouping until the next append; per-template reads are then slices
(:class:`TemplateQueries`, read-only views) for the collection pipeline
and the active-session estimator.  For each query ``q`` the log records
``t(q)`` (arrival, ms), ``tres(q)`` (response time, ms) and
``#examined_rows(q)`` — exactly the fields the paper collects (Def II.3).
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
    columns: copy before modifying.
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
    """Per-second columnar chunks, grouped by template on first read.

    ``sql_ids`` (and so ``iter_templates``) keeps the order in which
    templates first logged a query.
    """

    def __init__(self) -> None:
        #: Template code of each sql_id, in first-appearance order.
        self._codes: dict[str, int] = {}
        #: ``(template code, arrive_ms, response_ms, examined_rows)``.
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._count = 0
        #: Cached grouping: per-code bounds plus the three grouped columns.
        self._grouped: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def append(self, batch: SecondBatch) -> None:
        self.append_chunk(
            (batch.sql_id,), np.zeros(len(batch), dtype=np.int32),
            batch.arrive_ms, batch.response_ms, batch.examined_rows,
        )

    def append_chunk(
        self,
        sql_ids: Sequence[str],
        template: np.ndarray,
        arrive_ms: np.ndarray,
        response_ms: np.ndarray,
        examined_rows: np.ndarray,
    ) -> None:
        """Append one second's queries; ``template[i]`` indexes ``sql_ids``.

        Templates new to the log are registered in ``sql_ids`` order.
        """
        n = len(arrive_ms)
        if not (len(template) == len(response_ms) == n == len(examined_rows)):
            raise ValueError("chunk columns must share a length")
        if n == 0:
            return
        codes = self._codes
        lut = [codes.get(s, -1) for s in sql_ids]
        if -1 in lut:
            present = np.bincount(template, minlength=len(sql_ids)) > 0
            for i in np.flatnonzero(present).tolist():
                if lut[i] < 0:
                    lut[i] = codes[sql_ids[i]] = len(codes)
        self._chunks.append((
            np.array(lut, dtype=np.int32)[template],
            np.asarray(arrive_ms, dtype=np.int64),
            np.asarray(response_ms, dtype=np.float64),
            np.asarray(examined_rows, dtype=np.float64),
        ))
        self._count += n
        self._grouped = None

    @property
    def total_queries(self) -> int:
        return self._count

    @property
    def sql_ids(self) -> list[str]:
        return list(self._codes)

    def __contains__(self, sql_id: str) -> bool:
        return sql_id in self._codes

    def _columns(self) -> tuple[np.ndarray, ...]:
        """Every chunk's columns concatenated, in append order."""
        if len(self._chunks) == 1:
            return self._chunks[0]
        return tuple(np.concatenate(col) for col in zip(*self._chunks))

    def _group(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columns ordered by template code, then arrival; cached.

        A stable sort by code keeps each template's queries in append
        order, which is arrival order whenever seconds are appended in
        time order; otherwise a stable (code, arrival) sort follows.  The
        grouped columns replace the chunks, so the log holds one copy.
        """
        if self._grouped is None:
            if not self._chunks:
                empty = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
                for col in empty:
                    col.setflags(write=False)
                return (np.zeros(1, dtype=np.int64), *empty)
            codes, arrive, response, rows = self._columns()
            order = np.argsort(codes, kind="stable")
            codes, arrive = codes[order], arrive[order]
            unordered = (codes[1:] == codes[:-1]) & (arrive[1:] < arrive[:-1])
            if unordered.any():
                resort = np.lexsort((arrive, codes))
                order, codes, arrive = order[resort], codes[resort], arrive[resort]
            columns = (codes, arrive, response[order], rows[order])
            for col in columns:
                col.setflags(write=False)
            self._chunks = [columns]
            counts = np.bincount(codes, minlength=len(self._codes))
            bounds = np.concatenate(([0], np.cumsum(counts)))
            self._grouped = (bounds, *columns[1:])
        return self._grouped

    def queries_of(self, sql_id: str) -> TemplateQueries:
        """Arrival-ordered observations of one template (read-only views)."""
        code = self._codes.get(sql_id)
        bounds, arrive, response, rows = self._group()
        if code is None:
            lo = hi = 0
        else:
            lo, hi = int(bounds[code]), int(bounds[code + 1])
        return TemplateQueries(sql_id, arrive[lo:hi], response[lo:hi], rows[lo:hi])

    def iter_templates(self) -> Iterator[TemplateQueries]:
        for sql_id in self._codes:
            yield self.queries_of(sql_id)

    def all_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """(arrive_ms, end_ms) over every logged query, unordered."""
        if not self._chunks:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        _, arrive, response, _ = self._columns()
        return arrive, arrive + response
