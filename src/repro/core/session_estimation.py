"""Individual active-session estimation (paper Section IV-C).

The monitor reports the instance active session once per second, sampled
at an *unknown* instant t3 ∈ [t, t+1).  From the query logs, the
probability that query ``q`` is observed active over a period ``p`` is
``P(observed(p, q)) = |p ∩ [t(q), t(q)+tres(q))| / |p|``, so the
expected active session over ``p`` is the summed overlap fraction.

The full method splits each second into K buckets, picks the bucket
whose expected session is closest to the monitor's observed value
(locating t3), and evaluates each template's expected session *in that
bucket* — which removes most of the sampling-instant uncertainty.

Every mode makes one :meth:`LogStore.window` read of its templates.
The expectation modes place each query once on a grid of ``1000/K`` ms
cells over ``[ts, te + span − 1)``, in runs of rows small enough to stay
in cache.  In cell units a query covers ``[a, e)``, and its overlap with
cell ``c`` is
``H(e)[c] − H(a)[c]`` with ``H(x)[c] = clip(x − c, 0, 1)``: 1 below
``⌊x⌋``, the fraction ``x − ⌊x⌋`` at ``⌊x⌋``, 0 above.  Summed over
queries, the whole cells are a difference array (+1 at ``⌊a⌋``, −1 at
``⌊e⌋``, one ``cumsum``) and the fractions are two weighted
``bincount`` calls, so nothing is sorted.  The pooled (all-template) sum
over every cell selects each second's bucket; each template is then
summed only over the selected cells, a block of templates at a time, so
memory stays ``O(rows + templates × seconds + seconds × K × span)``.
Without buckets, K = 1 and each second is its own cell.

The per-template pass reads only the rows that can reach a selected
cell.  A query that starts and ends in one cell that is not selected
adds +1 and −1 to one step bin and its two fractions to the discarded
last column, so it is dropped before the gathers; the kept rows stay in
order, so every selected cell sums the same values in the same order and
the result is bit-identical.  Most queries are far shorter than a
100 ms cell: on the benchmark corpus about a third of the rows survive.

:class:`CoverageFunction` is the cumulative form of the same measure,
``F(x) = Σ_q |[0, x) ∩ [t(q), t(q)+tres(q))|``, for callers that query
arbitrary intervals of one template.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collection.logstore import LogStore
from repro.core.config import SessionEstimationMode
from repro.timeseries import TimeSeries

__all__ = ["CoverageFunction", "SessionEstimate", "SessionEstimator"]

#: Seconds before ``ts`` whose queries may still be running inside the
#: window; longer-running queries are rare.
_LOOKBACK_S = 300
#: Most cells the per-template pass holds at once: a block of templates
#: gets a few arrays of this size, whatever the template count.
_BLOCK_CELLS = 1 << 18
#: Rows per numpy pass of the estimator, small enough to stay in cache.
_CHUNK_ROWS = 1 << 14


class CoverageFunction:
    """Cumulative active-time measure of a set of query intervals."""

    def __init__(self, arrive_ms: np.ndarray, response_ms: np.ndarray) -> None:
        arrive = np.asarray(arrive_ms, dtype=np.float64)
        end = arrive + np.asarray(response_ms, dtype=np.float64)
        self._arrive = np.sort(arrive)
        self._end = np.sort(end)
        self._cum_arrive = np.concatenate([[0.0], np.cumsum(self._arrive)])
        self._cum_end = np.concatenate([[0.0], np.cumsum(self._end)])
        self._n = len(arrive)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``F(x) = Σ_q (min(x, end_q) − min(x, arrive_q))`` vectorized."""
        x = np.asarray(x, dtype=np.float64)
        return self._sum_min(x, self._end, self._cum_end) - self._sum_min(
            x, self._arrive, self._cum_arrive
        )

    def _sum_min(self, x: np.ndarray, sorted_vals: np.ndarray, cumsum: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(sorted_vals, x, side="left")
        return cumsum[idx] + (self._n - idx) * x

    def expected_session(self, starts_ms: np.ndarray, ends_ms: np.ndarray) -> np.ndarray:
        """Expected active session over each interval [start, end) (ms)."""
        starts_ms = np.asarray(starts_ms, dtype=np.float64)
        ends_ms = np.asarray(ends_ms, dtype=np.float64)
        widths = ends_ms - starts_ms
        if (widths <= 0).any():
            raise ValueError("intervals must have positive width")
        return (self(ends_ms) - self(starts_ms)) / widths


@dataclass
class SessionEstimate:
    """Result of individual active-session estimation for one case."""

    #: Template ids, in row order of :attr:`values`.
    sql_ids: list[str]
    #: Templates × seconds estimated active session (1 s interval).
    values: np.ndarray
    #: Sum over templates — the estimate of the instance active session.
    total: TimeSeries
    #: Selected bucket index per second (empty for bucket-less modes).
    selected_buckets: np.ndarray

    def __post_init__(self) -> None:
        #: ``sql_id → row`` of :attr:`values`.
        self.index = {sql_id: row for row, sql_id in enumerate(self.sql_ids)}

    def get(self, sql_id: str) -> TimeSeries:
        """One template's estimate: a view of its row (zeros if not estimated)."""
        row = self.index.get(sql_id)
        values = np.zeros(len(self.total)) if row is None else self.values[row]
        return TimeSeries(values, start=self.total.start, name=sql_id)


class SessionEstimator:
    """Estimates each template's active session from query logs.

    Parameters
    ----------
    mode:
        Which estimation method to use (Table III variants).
    buckets:
        K — how many buckets each second is split into.
    span_seconds:
        The paper's Section IV-C extension: when ``SHOW STATUS`` may not
        finish within one second, the bucket search extends over
        ``[t, t + span_seconds)`` — K buckets *per second* across the
        span.  The default of 1 is the paper's standard assumption.
    """

    def __init__(
        self,
        mode: SessionEstimationMode = SessionEstimationMode.BUCKETS,
        buckets: int = 10,
        span_seconds: int = 1,
    ) -> None:
        if buckets < 1:
            raise ValueError("buckets must be at least 1")
        if span_seconds < 1:
            raise ValueError("span_seconds must be at least 1")
        self.mode = mode
        self.buckets = int(buckets)
        self.span_seconds = int(span_seconds)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(
        self,
        logs: LogStore,
        sql_ids: list[str],
        observed_session: TimeSeries,
    ) -> SessionEstimate:
        """Estimate per-template sessions over the observed series' window."""
        ts, te = observed_session.start, observed_session.end
        sql_ids = list(dict.fromkeys(sql_ids))
        if self.mode is SessionEstimationMode.RESPONSE_TIME:
            return self._estimate_by_response_time(logs, sql_ids, ts, te)
        buckets = 1 if self.mode is SessionEstimationMode.NO_BUCKETS else self.buckets
        return self._estimate_expectation(logs, sql_ids, ts, te, observed_session, buckets)

    # ------------------------------------------------------------------
    # Baseline: total response time per second (Estimate-by-RT)
    # ------------------------------------------------------------------
    def _estimate_by_response_time(self, logs: LogStore, sql_ids, ts, te) -> SessionEstimate:
        n = te - ts
        window = logs.window(ts, te, sql_ids)
        values = np.bincount(
            np.repeat(np.arange(len(sql_ids)) * n, window.counts) + (window.arrive_ms // 1000 - ts),
            weights=window.response_ms, minlength=len(sql_ids) * n,
        ).reshape(len(sql_ids), n) / 1000.0
        return _estimate_of(sql_ids, values, ts, np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Expectation-based estimation, with or without bucket selection
    # ------------------------------------------------------------------
    def _estimate_expectation(
        self, logs: LogStore, sql_ids, ts, te, observed: TimeSeries, buckets: int
    ) -> SessionEstimate:
        n = te - ts
        # With span_seconds > 1 the search covers K buckets per second
        # over [t, t + span) — the paper's slow-SHOW STATUS extension.
        span = self.span_seconds if buckets > 1 else 1
        grid = _Grid(origin_ms=ts * 1000, buckets=buckets, cells=(n + span - 1) * buckets)
        # Queries that began before ts but are still running contribute
        # too, so the read reaches back _LOOKBACK_S seconds.
        window = logs.window(ts - _LOOKBACK_S, te, sql_ids)
        template = np.repeat(np.arange(len(sql_ids)), window.counts)
        arrive, response = window.arrive_ms, window.response_ms
        bounds = _run_bounds(window.offsets)
        chunks = [
            grid.place(template[i:j], arrive[i:j], response[i:j])
            for i, j in zip(bounds, bounds[1:])
        ]
        del arrive, response

        # Expected instance session per bucket, from the pooled log.
        pooled = grid.coverage(chunks, 0, len(sql_ids), np.arange(grid.cells), pooled=True)[0]
        bucket_cells = np.arange(n)[:, None] * buckets + np.arange(buckets * span)
        error = np.abs(pooled[bucket_cells] - observed.values[:, None])
        selected = np.argmin(error, axis=1)

        # Each template over the selected cells only, a block at a time.
        slots, slot_of = np.unique(bucket_cells[np.arange(n), selected], return_inverse=True)
        values = np.empty((len(sql_ids), n))
        block = max(1, _BLOCK_CELLS // (len(slots) + 2))
        for t0 in range(0, len(sql_ids), block):
            t1 = min(t0 + block, len(sql_ids))
            values[t0:t1] = grid.coverage(chunks, t0, t1, slots)[:, slot_of]
        chosen = selected if buckets > 1 else np.zeros(0, dtype=np.int64)
        return _estimate_of(sql_ids, values, ts, chosen)


def _run_bounds(offsets: np.ndarray) -> list[int]:
    """Row bounds of the runs the grid places at once: each template in
    pieces of at most _CHUNK_ROWS rows, a run closed once it holds
    _CHUNK_ROWS.  Each run adds its own partial sums into the pooled
    cells, so these bounds fix the float summation order."""
    bounds = [0]
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        for stop in [*range(lo + _CHUNK_ROWS, hi, _CHUNK_ROWS), hi]:
            if stop - bounds[-1] >= _CHUNK_ROWS:
                bounds.append(stop)
    if bounds[-1] < offsets[-1]:
        bounds.append(int(offsets[-1]))
    return bounds


@dataclass(frozen=True)
class _Placed:
    """One run of rows on the grid: template, then column and in-cell
    fraction of each query's arrival and end."""

    template: np.ndarray
    a_col: np.ndarray
    a_frac: np.ndarray
    e_col: np.ndarray
    e_frac: np.ndarray


@dataclass(frozen=True)
class _Grid:
    """Cells of ``1000 / buckets`` ms from ``origin_ms`` on.

    A position's *column* is its cell plus one, clipped to
    ``[0, cells + 1]``: column 0 is before the grid, ``cells + 1`` after.
    """

    origin_ms: int
    buckets: int
    cells: int

    def place(self, template: np.ndarray, arrive_ms: np.ndarray, response_ms: np.ndarray) -> _Placed:
        """Column and in-cell fraction of each query's arrival and end."""
        # Positions in cells, shifted by one so the column is the floor.
        start = arrive_ms - self.origin_ms
        start *= self.buckets
        start += 1000
        end = response_ms * self.buckets
        end += start
        end /= 1000.0
        return _Placed(template, *self._column(start / 1000.0), *self._column(end))

    def _column(self, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column and fraction; ``position`` becomes the fraction."""
        whole = np.floor(position)
        position -= whole
        np.clip(whole, 0, self.cells + 1, out=whole)
        return whole.astype(np.int64), position

    def coverage(self, chunks: list[_Placed], lo: int, hi: int, slots: np.ndarray, pooled: bool = False):
        """Expected session of templates ``[lo, hi)`` in the cells ``slots``.

        ``slots`` are sorted, distinct cell indices.  Returns one row
        per template, or one row in all when ``pooled``.  Slot ``i`` lies
        wholly inside a query when ``rank(a) ≤ i < rank(e)``, where
        ``rank`` counts the slots below an endpoint's column: a
        difference array and one cumsum.  An endpoint inside a slot adds
        (end) or takes away (arrival) its fraction there.  Rows have a
        spare column before the slots and one after; ranks past every
        slot and fractions outside every slot land in the last.  With
        every cell a slot, rows and columns line up and need no lookup.
        """
        width = len(slots) + 2
        is_slot = np.zeros(self.cells + 2, dtype=bool)
        is_slot[slots + 1] = True
        rank_at = 1 + np.cumsum(is_slot) - is_slot
        frac_at = np.where(is_slot, rank_at, width - 1)
        stride = 0 if pooled else width
        steps = np.zeros((1 if pooled else hi - lo, width), dtype=np.int64)
        fracs = np.zeros(steps.shape)
        flat_steps, flat_fracs = steps.ravel(), fracs.ravel()
        for chunk in chunks:
            # Rows are in template order: templates [lo, hi) are a slice.
            i, j = np.searchsorted(chunk.template, (lo, hi))
            rows = slice(i, j)
            if not pooled:
                # Slot-only rows: a query inside one non-slot column
                # changes no slot (see the module docstring).
                a_col, e_col = chunk.a_col[rows], chunk.e_col[rows]
                rows = i + np.flatnonzero((a_col != e_col) | is_slot[a_col])
            template = chunk.template[rows]
            if len(template) == 0:
                continue
            first = (template[0] - lo) * stride
            part = slice(first, (template[-1] - lo) * stride + width)
            count = part.stop - first
            a_step = a_slot = chunk.a_col[rows]
            e_step = e_slot = chunk.e_col[rows]
            if not pooled:
                row = (template - template[0]) * width
                a_step, a_slot = rank_at[a_step] + row, frac_at[a_slot] + row
                e_step, e_slot = rank_at[e_step] + row, frac_at[e_slot] + row
            flat_steps[part] += np.bincount(a_step, minlength=count)
            flat_steps[part] -= np.bincount(e_step, minlength=count)
            flat_fracs[part] += np.bincount(e_slot, weights=chunk.e_frac[rows], minlength=count)
            flat_fracs[part] -= np.bincount(a_slot, weights=chunk.a_frac[rows], minlength=count)
        np.cumsum(steps, axis=1, out=steps)
        fracs += steps
        return fracs[:, 1:-1]


def _estimate_of(sql_ids: list[str], values: np.ndarray, ts: int, selected) -> SessionEstimate:
    """Wrap a templates × seconds array (rows in ``sql_ids`` order)."""
    return SessionEstimate(
        sql_ids=sql_ids,
        values=values,
        total=TimeSeries(values.sum(axis=0), start=ts, name="estimated_session"),
        selected_buckets=np.asarray(selected, dtype=np.int64),
    )
