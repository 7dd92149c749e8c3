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

    def test_grouped_chunk_is_kept_without_a_copy(self):
        log = QueryLog()
        arrive = np.array([0, 5, 5, 1, 2], dtype=np.int64)
        resp = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        log.append_chunk(["A", "B"], np.array([0, 0, 0, 1, 1]), arrive, resp, resp)
        a = log.queries_of("A")
        assert np.shares_memory(a.arrive_ms, arrive)
        assert np.shares_memory(a.response_ms, resp)
        assert list(log.queries_of("B").arrive_ms) == [1, 2]
        # The caller's arrays keep their flags; the log's views do not write.
        assert arrive.flags.writeable and not a.arrive_ms.flags.writeable

    def test_in_order_appends_fill_spare_room_without_moving_rows(self):
        log = QueryLog()
        log.append(make_batch("A", [0, 1], resp=(1.0, 1.0), rows=(1.0, 1.0)))
        log.append(make_batch("A", [2, 3], resp=(1.0, 1.0), rows=(1.0, 1.0)))  # grows the column
        before = log.queries_of("A")
        log.append(make_batch("A", [4], resp=(1.0,), rows=(1.0,)))
        after = log.queries_of("A")
        assert list(after.arrive_ms) == [0, 1, 2, 3, 4]
        # The resident rows were not copied: both reads view one buffer.
        assert np.shares_memory(before.arrive_ms, after.arrive_ms)

    def test_late_rows_leave_earlier_reads_unchanged(self):
        log = QueryLog()
        log.append(make_batch("A", [0, 10], resp=(1.0, 1.0), rows=(1.0, 1.0)))
        log.append(make_batch("A", [20, 30], resp=(2.0, 3.0), rows=(1.0, 1.0)))
        before = log.queries_of("A")
        log.append(make_batch("A", [15, 25], resp=(7.0, 8.0), rows=(1.0, 1.0)))
        assert list(before.arrive_ms) == [0, 10, 20, 30]
        assert list(before.response_ms) == [1.0, 1.0, 2.0, 3.0]
        after = log.queries_of("A")
        assert list(after.arrive_ms) == [0, 10, 15, 20, 25, 30]
        assert list(after.response_ms) == [1.0, 1.0, 7.0, 2.0, 8.0, 3.0]

    def test_drop_before_cuts_every_template(self):
        log = QueryLog()
        chunk(log, ["A", "B"], [0, 1, 0, 1], [10, 20, 30, 40])
        assert log.drop_before(35) == (3, 40)
        assert log.sql_ids == ["B"]
        assert list(log.queries_of("B").arrive_ms) == [40]
        assert log.total_queries == 1
        assert log.drop_before(50) == (1, None)
        assert log.sql_ids == [] and log.total_queries == 0

    def test_chunk_after_drop_before_maps_codes_afresh(self):
        # A dictionary's codes are remembered; emptying a template retires
        # its code, so the next chunk of that dictionary registers it anew.
        log = QueryLog()
        names = ("A", "B")
        chunk(log, names, [0, 1], [10, 20])
        chunk(log, names, [0, 1], [30, 40])
        assert log.drop_before(35) == (3, 40)
        chunk(log, names, [0, 1, 0], [50, 60, 70])
        assert log.sql_ids == ["B", "A"]
        assert list(log.queries_of("A").arrive_ms) == [50, 70]
        assert list(log.queries_of("B").arrive_ms) == [40, 60]
        assert log.total_queries == 4

    def test_codes_of_a_partly_registered_dictionary_are_not_kept(self):
        log = QueryLog()
        names = ("A", "B")
        chunk(log, names, [0], [10])  # B holds no rows yet: no code
        chunk(log, names, [1, 0], [20, 30])
        assert log.sql_ids == ["A", "B"]
        assert list(log.queries_of("A").arrive_ms) == [10, 30]
        assert list(log.queries_of("B").arrive_ms) == [20]

    def test_interleaved_reads_match_one_sort_of_every_row(self):
        # Hundreds of one-template appends with reads in between, some
        # templates going back in time.
        rng = np.random.default_rng(3)
        log, rows = QueryLog(), []
        for i in range(300):
            sql_id = f"T{rng.integers(0, 4)}"
            start = int(rng.integers(0, 50_000)) if i % 40 == 39 else 100 * i
            arrive = np.sort(rng.integers(start, start + 300, size=3))
            log.append(make_batch(sql_id, arrive, resp=(i, i + 0.25, i + 0.5)))
            rows += [(sql_id, int(a), r) for a, r in zip(arrive, (i, i + 0.25, i + 0.5))]
            if i % 25 == 0:
                for check_id in log.sql_ids:
                    expected = sorted((a for s, a, _ in rows if s == check_id))
                    assert list(log.queries_of(check_id).arrive_ms) == expected
        for sql_id in log.sql_ids:
            mine = [(a, r) for s, a, r in rows if s == sql_id]
            expected = sorted(range(len(mine)), key=lambda k: mine[k][0])  # stable
            tq = log.queries_of(sql_id)
            assert list(tq.arrive_ms) == [mine[k][0] for k in expected]
            assert list(tq.response_ms) == [mine[k][1] for k in expected]

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
