"""``LogStore.window``: one read of every template's in-window rows.

The whole-store window read must return, template by template, exactly
what ``queries_in_window`` returns for that template: same rows, same
order, same ties, whatever order the blocks arrived in and after expiry.
``aggregate_logstore`` reads through it, so its output is also compared
bit for bit against the per-template path it replaced, kept below as
the reference.
"""

import numpy as np
import pytest

from repro.collection import LogStore, aggregate_logstore
from repro.collection.aggregator import TemplateMetricStore
from repro.collection.blocks import QUERY_BLOCK_DTYPE, QueryLogBlock
from repro.dbsim import QueryLog, SecondBatch
from repro.telemetry import MetricsRegistry
from tests.collection.test_block_equivalence import DELIVERIES, make_tied_log

METRICS = ("#execution", "total_tres", "avg_tres", "total_examined_rows")


def reference_aggregate(store, start, end):
    """The per-template read ``aggregate_logstore`` made before the window
    read: one ``queries_in_window`` per template, then one ``bincount``
    per metric over the concatenated rows."""
    windows = [store.queries_in_window(s, start, end) for s in store.sql_ids]
    windows = [tq for tq in windows if len(tq)]
    n = end - start
    arrive = np.concatenate([tq.arrive_ms for tq in windows] + [np.zeros(0, np.int64)])
    cell = arrive // 1000 - start
    cell += np.repeat(np.arange(len(windows), dtype=np.int64) * n, [len(tq) for tq in windows])

    def total(weights):
        if weights is not None:
            weights = np.concatenate(weights + [np.zeros(0)])
        return np.bincount(cell, weights=weights, minlength=n * len(windows)).reshape(
            (len(windows), n)
        )

    count = total(None).astype(np.float64)
    total_tres = total([tq.response_ms for tq in windows])
    return TemplateMetricStore(
        start, end, sql_ids=[tq.sql_id for tq in windows],
        matrices={
            "#execution": count,
            "total_tres": total_tres,
            "avg_tres": total_tres / np.maximum(count, 1.0),
            "total_examined_rows": total([tq.examined_rows for tq in windows]),
        },
    )


def template_rows(window, i):
    """Template ``i``'s slice of each window column (one gather each)."""
    lo, hi = window.offsets[i], window.offsets[i + 1]
    return [col[lo:hi] for col in (window.arrive_ms, window.response_ms, window.examined_rows)]


def assert_rows_match(window, read):
    """Each template's window slice equals ``read(sql_id)``: same rows,
    order and dtypes."""
    assert len(window.offsets) == len(window.sql_ids) + 1
    assert window.offsets[-1] == len(window)
    for i, sql_id in enumerate(window.sql_ids):
        want = read(sql_id)
        for a, b in zip(template_rows(window, i), (want.arrive_ms, want.response_ms,
                                                  want.examined_rows)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def assert_window_matches(store, t0, t1):
    window = store.window(t0, t1)
    assert window.sql_ids == store.sql_ids
    assert_rows_match(window, lambda sql_id: store.queries_in_window(sql_id, t0, t1))
    for col in (window.arrive_ms, window.response_ms, window.examined_rows):
        assert not col.flags.writeable
    got, want = aggregate_logstore(store, t0, t1), reference_aggregate(store, t0, t1)
    assert got.sql_ids == want.sql_ids
    for metric in METRICS:
        assert got.matrix(metric).tobytes() == want.matrix(metric).tobytes()
    return window


def block(sql_ids, template, arrive, response=None):
    data = np.zeros(len(arrive), dtype=QUERY_BLOCK_DTYPE)
    data["template"] = template
    data["arrive_ms"] = arrive
    data["response_ms"] = response if response is not None else np.arange(len(arrive)) + 1.0
    data["examined_rows"] = 10.0 * data["response_ms"]
    return QueryLogBlock(sql_ids=tuple(sql_ids), data=data)


class TestLogStoreWindow:
    @pytest.mark.parametrize("delivery", sorted(DELIVERIES))
    def test_matches_per_template_reads(self, delivery):
        store = LogStore(registry=MetricsRegistry())
        for i, b in enumerate(DELIVERIES[delivery](make_tied_log())):
            store.ingest_block(b)
            if i % 11 == 5:  # read while chunks are still queued
                assert_window_matches(store, 0, 60)
                assert_window_matches(store, 5, 17)
        assert_window_matches(store, 0, 60)
        assert_window_matches(store, 5, 17)
        assert_window_matches(store, 39, 40)

    def test_edges_on_arrival_milliseconds(self):
        # Arrivals on whole seconds: the start edge is kept, the end excluded.
        store = LogStore(registry=MetricsRegistry())
        store.ingest_block(block(
            ("a", "b"), [0, 1, 0, 0, 1], [5_000, 5_000, 6_000, 7_000, 7_000],
        ))
        window = assert_window_matches(store, 5, 7)
        np.testing.assert_array_equal(window.arrive_ms, [5_000, 6_000, 5_000])
        np.testing.assert_array_equal(window.counts, [2, 1])
        np.testing.assert_array_equal(window.response_ms, [1.0, 3.0, 2.0])

    def test_templates_without_rows_in_the_window(self):
        store = LogStore(registry=MetricsRegistry())
        store.ingest_block(block(("early", "late", "both"), [0, 2, 1, 2],
                                 [1_000, 1_500, 30_000, 31_000]))
        window = assert_window_matches(store, 20, 40)
        assert window.sql_ids == ["early", "late", "both"]
        np.testing.assert_array_equal(window.counts, [0, 1, 1])
        assert len(template_rows(window, 0)[0]) == 0
        assert aggregate_logstore(store, 20, 40).sql_ids == ["late", "both"]
        empty = assert_window_matches(store, 100, 200)
        assert len(empty) == 0 and empty.counts.tolist() == [0, 0, 0]
        assert aggregate_logstore(store, 100, 200).sql_ids == []

    def test_empty_store(self):
        store = LogStore(registry=MetricsRegistry())
        window = assert_window_matches(store, 0, 10)
        assert window.sql_ids == [] and window.offsets.tolist() == [0]

    @pytest.mark.parametrize("delivery", sorted(DELIVERIES))
    def test_reads_after_expire(self, delivery):
        store = LogStore(retention_s=10, registry=MetricsRegistry())
        for b in DELIVERIES[delivery](make_tied_log()):
            store.ingest_block(b)
        assert store.expire(35) > 0
        window = assert_window_matches(store, 0, 60)
        assert window.arrive_ms.min() >= 25_000
        assert len(assert_window_matches(store, 0, 25)) == 0
        # A late batch after the expiry lands in the window too.
        store.ingest_batch(SecondBatch(
            "q0", np.array([26_000], dtype=np.int64), np.array([9.0]), np.array([90.0])
        ))
        assert_window_matches(store, 25, 30)

    def test_columns_are_read_only(self):
        store = LogStore(registry=MetricsRegistry())
        store.ingest_block(block(("a",), [0, 0], [1_000, 2_000]))
        for col in template_rows(store.window(0, 10), 0):
            with pytest.raises(ValueError):
                col[0] = 0

    def test_a_window_keeps_its_rows_across_later_ingest(self):
        store = LogStore(registry=MetricsRegistry())
        store.ingest_block(block(("a",), [0, 0], [1_000, 2_000]))
        store.window(0, 10)
        # An in-order block grows the column into spare room that
        # later rows may be written into in place.
        store.ingest_block(block(("a",), [0], [3_000], response=[3.0]))
        window = store.window(0, 10)
        # A late row sorts in between the rows the window covers.
        store.ingest_block(block(("a",), [0], [1_500], response=[7.0]))
        np.testing.assert_array_equal(store.window(0, 10).arrive_ms,
                                      [1_000, 1_500, 2_000, 3_000])
        np.testing.assert_array_equal(window.arrive_ms, [1_000, 2_000, 3_000])
        np.testing.assert_array_equal(window.response_ms, [1.0, 2.0, 3.0])


class TestWindowOfListedTemplates:
    """``window(t0, t1, sql_ids)``: the listed templates only, in the
    listed order; an id the store does not hold gets an empty range."""

    @pytest.mark.parametrize("delivery", sorted(DELIVERIES))
    def test_matches_per_template_reads(self, delivery):
        store = LogStore(registry=MetricsRegistry())
        for b in DELIVERIES[delivery](make_tied_log()):
            store.ingest_block(b)
        listed = [store.sql_ids[-1], "ghost", *store.sql_ids[:-1][::-2]]
        assert listed != store.sql_ids[: len(listed)]
        for t0, t1 in ((0, 60), (5, 17), (39, 40)):
            window = store.window(t0, t1, listed)
            assert window.sql_ids == listed
            assert window.counts[1] == 0
            assert_rows_match(window, lambda sql_id: store.queries_in_window(sql_id, t0, t1))

    def test_only_unknown_ids(self):
        store = LogStore(registry=MetricsRegistry())
        store.ingest_block(block(("a",), [0, 0], [1_000, 2_000]))
        window = store.window(0, 10, ["x", "y"])
        assert window.sql_ids == ["x", "y"] and window.offsets.tolist() == [0, 0, 0]
        assert window.arrive_ms.dtype == np.int64 and len(window.response_ms) == 0
        assert store.window(0, 10, []).offsets.tolist() == [0]

    def test_whole_log_window_matches_iter_templates(self):
        log = QueryLog()
        for b in DELIVERIES["late_reordered"](make_tied_log()):
            data = b.data
            log.append_chunk(b.sql_ids, data["template"], data["arrive_ms"],
                             data["response_ms"], data["examined_rows"])
        log.drop_before(12_000)
        window = log.window(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
        assert window.sql_ids == [tq.sql_id for tq in log.iter_templates()]
        assert len(window) == log.total_queries
        assert_rows_match(window, log.queries_of)
