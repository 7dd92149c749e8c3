"""Columnar block payloads: what every dataplane message carries.

PinSQL is fleet-scale: the collection pipeline must move millions of
query-log records per second, and per-record Python objects spend more
time on interpreter overhead and pickling than on the actual
aggregation work.  Every message on a ``query_logs.*`` or
``performance_metrics.*`` topic therefore carries one *block* — a
numpy structured array plus a small string dictionary:

- :class:`QueryLogBlock`: rows of ``(template, arrive_ms, response_ms,
  examined_rows)`` with ``sql_ids`` mapping the int32 ``template``
  column back to template ids, stamped with the source ``instance``;
- :class:`MetricBlock`: rows of ``(metric, timestamp, value)`` with a
  ``metrics`` name dictionary.

Blocks come in two grains cut from the same whole-log block:
:func:`split_by_second` gives one block per stream-time second (the
streaming grain), :func:`split_query_block` gives row-bounded bulk
blocks.  Blocks are frozen and their arrays must be treated as
immutable; a captured :class:`~repro.fleet.workers.BlockFeed` makes its
row arrays read-only so replays cannot change them.  Blocks cross the
process boundary to shard workers by plain pickling.

Validation (:func:`validate_query_block` /
:func:`validate_metric_block`) rejects malformed blocks —
chaos-corrupted or otherwise — and anything that is not a block at all
(``not_a_block``), so they are quarantined to the dead-letter topic
instead of crashing a drain loop.

Each block carries a distributed-tracing envelope: the publishing
span's :class:`~repro.telemetry.tracing.TraceContext` (``trace``) and
the publish wall-clock time (``created_unix``, unix seconds) used for
pipeline-lag watermarks.  Both are stamped at publish time
(:func:`stamp_block`); an unstamped block has ``trace=None`` and
``created_unix=0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.dbsim.monitor import InstanceMetrics
    from repro.dbsim.query import QueryLog

from repro.dbsim.query import SecondBatch
from repro.telemetry.tracing import TraceContext

__all__ = [
    "BLOCK_KEY",
    "QUERY_BLOCK_DTYPE",
    "METRIC_BLOCK_DTYPE",
    "QueryLogBlock",
    "MetricBlock",
    "query_block_from_log",
    "metric_block_from_metrics",
    "split_by_second",
    "split_query_block",
    "stamp_block",
    "validate_block",
    "validate_query_block",
    "validate_metric_block",
]

#: Message key used for block payloads on broker topics.
BLOCK_KEY = "__block__"

#: Row layout of a query-log block: ``template`` indexes ``sql_ids``.
QUERY_BLOCK_DTYPE = np.dtype(
    [
        ("template", np.int32),
        ("arrive_ms", np.int64),
        ("response_ms", np.float64),
        ("examined_rows", np.float64),
    ]
)

#: Row layout of a metric block: ``metric`` indexes ``metrics``.
METRIC_BLOCK_DTYPE = np.dtype(
    [
        ("metric", np.int32),
        ("timestamp", np.int64),
        ("value", np.float64),
    ]
)

@dataclass(frozen=True)
class QueryLogBlock:
    """One columnar batch of query-log records (possibly many templates).

    ``data`` is a :data:`QUERY_BLOCK_DTYPE` structured array; the int32
    ``template`` column indexes ``sql_ids``.  ``statements`` optionally
    carries one raw exemplar statement per template (empty string =
    unknown), so catalogs can be taught across the process boundary.
    """

    sql_ids: tuple[str, ...]
    data: np.ndarray
    instance: str = ""
    statements: tuple[str, ...] = ()
    #: Publishing span's trace context; None while unstamped.
    trace: TraceContext | None = None
    #: Publish wall-clock time (unix seconds; 0.0 = unstamped) used for
    #: pipeline-lag watermarks downstream.
    created_unix: float = 0.0

    def __len__(self) -> int:
        return len(self.data)

    def with_rows(self, data: np.ndarray) -> "QueryLogBlock":
        """The same dictionary and envelope over other rows."""
        return QueryLogBlock(
            self.sql_ids, data, self.instance, self.statements, self.trace, self.created_unix
        )

    def stamped(self, trace: TraceContext | None, created_unix: float) -> "QueryLogBlock":
        """The same rows under another envelope."""
        return QueryLogBlock(
            self.sql_ids, self.data, self.instance, self.statements, trace, created_unix
        )

    @property
    def n_templates(self) -> int:
        return len(self.sql_ids)

    @property
    def nbytes(self) -> int:
        """Approximate payload size (the structured rows)."""
        return int(self.data.nbytes)

    def iter_template_batches(self) -> Iterator[SecondBatch]:
        """Per-template :class:`SecondBatch` slices, arrival-ordered.

        One stable argsort over ``(template, arrive_ms)`` splits the
        whole block; each yielded batch is time-ordered regardless of
        the block's row order.
        """
        data = self.data
        if len(data) == 0:
            return
        template = data["template"]
        order = np.lexsort((data["arrive_ms"], template))
        template = template[order]
        arrive = data["arrive_ms"][order]
        resp = data["response_ms"][order]
        rows = data["examined_rows"][order]
        boundaries = np.flatnonzero(np.diff(template)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(template)]])
        for lo, hi in zip(starts, ends):
            yield SecondBatch(
                sql_id=self.sql_ids[int(template[lo])],
                arrive_ms=arrive[lo:hi],
                response_ms=resp[lo:hi],
                examined_rows=rows[lo:hi],
            )


@dataclass(frozen=True)
class MetricBlock:
    """One columnar batch of performance-metric samples."""

    metrics: tuple[str, ...]
    data: np.ndarray
    instance: str = ""
    trace: TraceContext | None = None
    created_unix: float = 0.0

    def __len__(self) -> int:
        return len(self.data)

    def with_rows(self, data: np.ndarray) -> "MetricBlock":
        """The same dictionary and envelope over other rows."""
        return MetricBlock(self.metrics, data, self.instance, self.trace, self.created_unix)

    def stamped(self, trace: TraceContext | None, created_unix: float) -> "MetricBlock":
        """The same rows under another envelope."""
        return MetricBlock(self.metrics, self.data, self.instance, trace, created_unix)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def iter_metric_series(self) -> Iterator[tuple[str, list[int], list[float]]]:
        """Per-metric ``(name, timestamps, values)``, as Python lists, in
        metric-code order; each metric's samples in timestamp order, ties
        in row order.

        One ``lexsort`` orders the block and each column becomes one
        list, so a one-second block of a few metrics costs a handful of
        numpy calls, not a few per metric.
        """
        data = self.data
        if len(data) == 0:
            return
        data = data[np.lexsort((data["timestamp"], data["metric"]))]
        metric = data["metric"]
        cuts = [0, *(np.flatnonzero(metric[1:] != metric[:-1]) + 1).tolist(), len(data)]
        codes, ts, values = metric.tolist(), data["timestamp"].tolist(), data["value"].tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            yield self.metrics[codes[lo]], ts[lo:hi], values[lo:hi]


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def query_block_from_log(
    query_log: "QueryLog",
    instance: str = "",
    statements: Mapping[str, str] | None = None,
) -> QueryLogBlock:
    """Columnarise a whole simulated :class:`QueryLog` into one block.

    Rows come out template-major, arrival-ordered within each template
    — the same per-template order :meth:`QueryLog.queries_of` exposes.
    """
    window = query_log.window(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
    sql_ids = window.sql_ids
    data = np.empty(len(window), dtype=QUERY_BLOCK_DTYPE)
    data["template"] = np.repeat(np.arange(len(sql_ids)), window.counts)
    data["arrive_ms"] = window.arrive_ms
    data["response_ms"] = window.response_ms
    data["examined_rows"] = window.examined_rows
    stmts: tuple[str, ...] = ()
    if statements:
        stmts = tuple(statements.get(sql_id, "") for sql_id in sql_ids)
    return QueryLogBlock(
        sql_ids=tuple(sql_ids), data=data, instance=instance, statements=stmts
    )


def metric_block_from_metrics(
    metrics: "InstanceMetrics", instance: str = ""
) -> MetricBlock:
    """Columnarise an :class:`InstanceMetrics` bundle into one block."""
    names: list[str] = []
    chunks: list[np.ndarray] = []
    for name, series in metrics.series.items():
        n = len(series.values)
        if n == 0:
            continue
        rows = np.empty(n, dtype=METRIC_BLOCK_DTYPE)
        rows["metric"] = len(names)
        rows["timestamp"] = np.asarray(series.timestamps, dtype=np.int64)
        rows["value"] = np.asarray(series.values, dtype=np.float64)
        names.append(name)
        chunks.append(rows)
    data = (
        np.concatenate(chunks)
        if chunks
        else np.empty(0, dtype=METRIC_BLOCK_DTYPE)
    )
    return MetricBlock(metrics=tuple(names), data=data, instance=instance)


def split_by_second(
    block: QueryLogBlock | MetricBlock,
) -> list[QueryLogBlock | MetricBlock]:
    """Split a block into one block per stream-time second, in time order.

    Rows keep their relative order within a second and every piece
    shares the dictionary, so the pieces are zero-copy views.  A query
    row's second is ``arrive_ms // 1000``; a metric row's is its
    ``timestamp``.
    """
    data = block.data
    if isinstance(block, QueryLogBlock):
        seconds = data["arrive_ms"] // 1000
    else:
        seconds = data["timestamp"]
    order = np.argsort(seconds, kind="stable")
    data, seconds = data[order], seconds[order]
    cuts = np.flatnonzero(np.diff(seconds)) + 1
    return [block.with_rows(rows) for rows in np.split(data, cuts) if len(rows)]


def split_query_block(
    block: QueryLogBlock, max_rows: int
) -> list[QueryLogBlock]:
    """Split a block into row-bounded blocks sharing the dictionary.

    Bounded message sizes keep broker memory and IPC messages sane; the
    shared ``sql_ids`` dictionary means no re-indexing.
    """
    if max_rows <= 0:
        raise ValueError("max_rows must be positive")
    if len(block) <= max_rows:
        return [block]
    return [
        block.with_rows(block.data[lo : lo + max_rows])
        for lo in range(0, len(block), max_rows)
    ]


def stamp_block(
    block: QueryLogBlock | MetricBlock,
    trace: TraceContext | None,
    created_unix: float,
) -> QueryLogBlock | MetricBlock:
    """Stamp the tracing envelope onto a block at publish time.

    Existing stamps win — a block republished by a shard worker keeps
    the parent's trace context and original publish time, which is what
    makes end-to-end pipeline-lag watermarks honest.
    """
    new_trace = trace is not None and block.trace is None
    new_time = bool(created_unix) and not block.created_unix
    if not (new_trace or new_time):
        return block
    return block.stamped(
        trace if new_trace else block.trace,
        float(created_unix) if new_time else block.created_unix,
    )


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _names_ok_cached(names: tuple[str, ...]) -> bool:
    return all(isinstance(s, str) and s for s in names)


def _names_ok(names) -> bool:
    """Every dictionary entry is a non-empty string, checked once per
    distinct dictionary (blocks of a stream share theirs)."""
    try:
        return _names_ok_cached(names)
    except TypeError:  # unhashable: a list, or a tuple holding one
        return all(isinstance(s, str) and s for s in names)


def _index_ok(column: np.ndarray, size: int) -> bool:
    """Every entry of an int32 column lies in ``[0, size)``: one max over
    the entries read unsigned, where a negative entry is at least
    ``2**31``."""
    return bool(np.maximum.reduce(column.view(np.uint32)) < size)


def _non_negative(column: np.ndarray) -> bool:
    return bool(np.minimum.reduce(column) >= 0)


def _finite(column: np.ndarray) -> bool:
    return bool(np.logical_and.reduce(np.isfinite(column)))


def validate_query_block(block: object) -> str | None:
    """Reject reason for a query-log block, or ``None`` if valid."""
    if not isinstance(block, QueryLogBlock):
        return "not_a_block"
    data = block.data
    if not isinstance(data, np.ndarray) or data.dtype != QUERY_BLOCK_DTYPE:
        return "bad_dtype"
    if data.ndim != 1 or data.size == 0:
        return "bad_shape:data"
    if not _names_ok(block.sql_ids):
        return "bad_type:sql_ids"
    if block.statements and len(block.statements) != len(block.sql_ids):
        return "length_mismatch:statements"
    if len(block.sql_ids) == 0:
        return "missing_dictionary"
    if not _index_ok(data["template"], len(block.sql_ids)):
        return "bad_index:template"
    if not _non_negative(data["arrive_ms"]):
        return "bad_type:arrive_ms"
    if not _finite(data["response_ms"]):
        return "non_finite:response_ms"
    if not _finite(data["examined_rows"]):
        return "non_finite:examined_rows"
    if not isinstance(block.instance, str):
        return "bad_type:instance"
    return _validate_envelope(block)


def validate_metric_block(block: object) -> str | None:
    """Reject reason for a metric block, or ``None`` if valid."""
    if not isinstance(block, MetricBlock):
        return "not_a_block"
    data = block.data
    if not isinstance(data, np.ndarray) or data.dtype != METRIC_BLOCK_DTYPE:
        return "bad_dtype"
    if data.ndim != 1 or data.size == 0:
        return "bad_shape:data"
    if not _names_ok(block.metrics):
        return "bad_type:metrics"
    if len(block.metrics) == 0:
        return "missing_dictionary"
    if not _index_ok(data["metric"], len(block.metrics)):
        return "bad_index:metric"
    if not _non_negative(data["timestamp"]):
        return "bad_type:timestamp"
    if not _finite(data["value"]):
        return "non_finite:value"
    if not isinstance(block.instance, str):
        return "bad_type:instance"
    return _validate_envelope(block)


def validate_block(block: object) -> str | None:
    """Reject reason for a payload of either block kind, or ``None``."""
    if isinstance(block, MetricBlock):
        return validate_metric_block(block)
    return validate_query_block(block)


def _validate_envelope(block: QueryLogBlock | MetricBlock) -> str | None:
    if block.trace is not None and not isinstance(block.trace, TraceContext):
        return "bad_type:trace"
    created = block.created_unix
    if not isinstance(created, (int, float)) or not math.isfinite(created) or created < 0:
        return "bad_type:created_unix"
    return None
