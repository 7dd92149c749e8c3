"""Tests for the columnar query log."""

import numpy as np
import pytest

from repro.dbsim import QueryLog, SecondBatch


def make_batch(sql_id="Q1", arrive=(0, 100, 200), resp=(10.0, 20.0, 30.0), rows=(1.0, 2.0, 3.0)):
    return SecondBatch(
        sql_id=sql_id,
        arrive_ms=np.asarray(arrive, dtype=np.int64),
        response_ms=np.asarray(resp, dtype=np.float64),
        examined_rows=np.asarray(rows, dtype=np.float64),
    )


class TestSecondBatch:
    def test_length(self):
        assert len(make_batch()) == 3

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            SecondBatch(
                "Q1",
                np.array([1, 2], dtype=np.int64),
                np.array([1.0]),
                np.array([1.0, 2.0]),
            )


class TestQueryLog:
    def test_append_and_count(self):
        log = QueryLog()
        log.append(make_batch())
        log.append(make_batch(arrive=(1000,), resp=(5.0,), rows=(1.0,)))
        assert log.total_queries == 4
        assert log.sql_ids == ["Q1"]
        assert "Q1" in log

    def test_empty_batch_ignored(self):
        log = QueryLog()
        log.append(make_batch(arrive=(), resp=(), rows=()))
        assert log.total_queries == 0
        assert log.sql_ids == []

    def test_queries_of_sorted_by_arrival(self):
        log = QueryLog()
        log.append(make_batch(arrive=(2000, 2100), resp=(1.0, 1.0), rows=(1.0, 1.0)))
        log.append(make_batch(arrive=(0, 100), resp=(1.0, 1.0), rows=(1.0, 1.0)))
        tq = log.queries_of("Q1")
        assert list(tq.arrive_ms) == [0, 100, 2000, 2100]
        assert len(tq) == 4

    def test_queries_of_unknown_template_empty(self):
        log = QueryLog()
        tq = log.queries_of("NOPE")
        assert len(tq) == 0
        assert tq.end_ms.shape == (0,)

    def test_end_ms(self):
        log = QueryLog()
        log.append(make_batch(arrive=(0, 100), resp=(10.0, 20.0), rows=(1.0, 1.0)))
        tq = log.queries_of("Q1")
        assert list(tq.end_ms) == [10.0, 120.0]

    def test_all_intervals(self):
        log = QueryLog()
        log.append(make_batch(sql_id="A", arrive=(0,), resp=(10.0,), rows=(1.0,)))
        log.append(make_batch(sql_id="B", arrive=(5,), resp=(10.0,), rows=(1.0,)))
        arrive, end = log.all_intervals()
        assert len(arrive) == 2
        assert set(end) == {10.0, 15.0}

    def test_all_intervals_empty(self):
        arrive, end = QueryLog().all_intervals()
        assert len(arrive) == 0 and len(end) == 0

    def test_iter_templates(self):
        log = QueryLog()
        log.append(make_batch(sql_id="A"))
        log.append(make_batch(sql_id="B"))
        ids = {tq.sql_id for tq in log.iter_templates()}
        assert ids == {"A", "B"}


def chunk(log, names, template, arrive, resp=None, rows=None):
    n = len(arrive)
    log.append_chunk(
        names,
        np.asarray(template, dtype=np.int64),
        np.asarray(arrive, dtype=np.int64),
        np.asarray(resp if resp is not None else [1.0] * n, dtype=np.float64),
        np.asarray(rows if rows is not None else [1.0] * n, dtype=np.float64),
    )


class TestColumnarChunks:
    def test_first_appearance_order(self):
        log = QueryLog()
        chunk(log, ["B", "A", "C"], [0, 1, 0], [0, 10, 20])  # C has no rows
        assert log.sql_ids == ["B", "A"]
        assert "C" not in log
        chunk(log, ["C", "A"], [0, 1], [1000, 1001])
        chunk(log, ["D"], [0], [2000])
        assert log.sql_ids == ["B", "A", "C", "D"]
        assert [tq.sql_id for tq in log.iter_templates()] == log.sql_ids
        assert len(log.queries_of("B")) == 2 and len(log.queries_of("A")) == 2

    def test_append_after_read_invalidates_grouping(self):
        log = QueryLog()
        chunk(log, ["A"], [0, 0], [0, 100], resp=[5.0, 6.0])
        assert list(log.queries_of("A").response_ms) == [5.0, 6.0]
        chunk(log, ["A", "B"], [0, 1], [1000, 1001], resp=[7.0, 8.0])
        assert list(log.queries_of("A").response_ms) == [5.0, 6.0, 7.0]
        assert list(log.queries_of("B").arrive_ms) == [1001]
        assert log.total_queries == 4

    def test_mixed_batches_and_chunks_in_arrival_order(self):
        log = QueryLog()
        chunk(log, ["A", "B"], [0, 1, 0], [1000, 1002, 1500], rows=[1.0, 2.0, 3.0])
        log.append(make_batch(sql_id="A", arrive=(0, 500), resp=(1.0, 1.0), rows=(7.0, 8.0)))
        _ = log.queries_of("A")
        log.append(make_batch(sql_id="B", arrive=(2000,), resp=(1.0,), rows=(9.0,)))
        a, b = log.queries_of("A"), log.queries_of("B")
        assert list(a.arrive_ms) == [0, 500, 1000, 1500]
        assert list(a.examined_rows) == [7.0, 8.0, 1.0, 3.0]
        assert list(b.examined_rows) == [2.0, 9.0]
        arrive, end = log.all_intervals()
        assert sorted(arrive) == [0, 500, 1000, 1002, 1500, 2000]
        assert len(end) == 6

    def test_arrival_ties_keep_append_order(self):
        log = QueryLog()
        log.append(make_batch(sql_id="A", arrive=(1000,), resp=(1.0,), rows=(1.0,)))
        log.append(make_batch(sql_id="A", arrive=(0, 1000), resp=(2.0, 3.0), rows=(1.0, 1.0)))
        assert list(log.queries_of("A").response_ms) == [2.0, 1.0, 3.0]

    def test_empty_seconds(self):
        log = QueryLog()
        chunk(log, [], [], [])
        chunk(log, ["A"], [], [])
        assert log.total_queries == 0 and log.sql_ids == []
        assert len(log.queries_of("A")) == 0
        chunk(log, ["A"], [0], [5])
        chunk(log, [], [], [])
        assert list(log.queries_of("A").arrive_ms) == [5]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            chunk(QueryLog(), ["A"], [0, 0], [1])

    def test_template_views_are_read_only(self):
        log = QueryLog()
        chunk(log, ["A"], [0, 0], [0, 1])
        tq = log.queries_of("A")
        for column in (tq.arrive_ms, tq.response_ms, tq.examined_rows):
            with pytest.raises(ValueError):
                column[0] = 0
        empty = log.queries_of("NOPE")
        with pytest.raises(ValueError):
            empty.response_ms[...] = 1.0
