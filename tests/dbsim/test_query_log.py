"""Tests for the columnar query log."""

import numpy as np
import pytest

from repro.dbsim import QueryLog, SecondBatch
from repro.dbsim.query import _group_columns


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

    def test_a_partly_registered_dictionary_registers_templates_as_they_log(self):
        log = QueryLog()
        names = ("A", "B")
        chunk(log, names, [0], [10])  # B holds no rows yet: no code
        chunk(log, names, [1, 0], [20, 30])
        assert log.sql_ids == ["A", "B"]
        assert list(log.queries_of("A").arrive_ms) == [10, 30]
        assert list(log.queries_of("B").arrive_ms) == [20]

    def test_late_arriving_templates_resolve_into_the_kept_code_table(self):
        # A stream's shared dictionary names templates that have not
        # logged yet.  Its code table is kept with those entries
        # unresolved and re-resolved only when a chunk uses one.
        log = QueryLog()
        names = ("A", "B", "C", "D")
        chunk(log, names, [2, 0], [10, 11])
        table = log._luts[names]
        assert table.tolist() == [0, -1, 1, -1]  # new templates: dictionary order
        chunk(log, names, [0, 2, 0], [20, 21, 22])  # nothing new: no change
        assert log._luts[names] is table and table.tolist() == [0, -1, 1, -1]
        assert log.sql_ids == ["A", "C"]  # only templates holding rows
        chunk(log, names, [3, 1, 3], [30, 31, 32])  # B and D arrive late
        assert log._luts[names] is table and table.tolist() == [0, 2, 1, 3]
        assert log.sql_ids == ["A", "C", "B", "D"]
        assert list(log.queries_of("D").arrive_ms) == [30, 32]
        assert list(log.queries_of("B").arrive_ms) == [31]
        assert log.total_queries == 8

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


def reference_group_columns(codes, arrive, response, rows, n_codes):
    """The grouping pass as it was before the radix sorts: a stable
    argsort of the int32 codes, then ``np.lexsort`` when arrivals are
    out of order within a code."""
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


def second_chunks(rng, n_codes, seconds=40, per_second=30):
    """Per-second chunks ``(codes, arrive, response, rows)`` of a stream,
    with arrival ties inside a second."""
    chunks = []
    for s in range(seconds):
        n = int(rng.integers(1, per_second))
        arrive = np.sort(rng.integers(s * 1000, s * 1000 + 50, size=n)).astype(np.int64)
        codes = rng.integers(0, n_codes, size=n).astype(np.int32)
        chunks.append((codes, arrive, rng.uniform(1, 50, n), rng.uniform(1, 500, n)))
    return chunks


def disorder(chunks, kind, rng):
    """The stream's chunks as a faulty pipeline delivers them."""
    chunks = list(chunks)
    if kind == "late":
        for i in rng.choice(len(chunks) // 2, size=5, replace=False):
            chunks.insert(int(i) + 8, chunks.pop(int(i)))
    elif kind == "duplicated":
        for i in rng.choice(len(chunks), size=8, replace=False):
            chunks.insert(int(i) + 1, chunks[int(i)])
    elif kind == "reordered":
        for lo in range(0, len(chunks), 6):
            window = chunks[lo : lo + 6]
            chunks[lo : lo + 6] = [window[k] for k in rng.permutation(len(window))]
    return chunks


class TestGroupingEquivalence:
    """The radix-sorted grouping and fold against the code they replace."""

    @pytest.mark.parametrize("n_codes", [5, 300, 70_000])
    @pytest.mark.parametrize("kind", ["clean", "late", "duplicated", "reordered"])
    def test_group_columns_matches_the_lexsort_pass(self, kind, n_codes):
        rng = np.random.default_rng(n_codes)
        chunks = disorder(second_chunks(rng, min(n_codes, 40)), kind, rng)
        codes, arrive, response, rows = (np.concatenate(c) for c in zip(*chunks))
        if n_codes > 40:
            codes = codes * (n_codes // 40)  # spread over a wide code range
        got = _group_columns(codes, arrive, response, rows, n_codes)
        want = reference_group_columns(codes, arrive, response, rows, n_codes)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_arrivals_too_wide_to_pack_match_the_lexsort_pass(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 9, 400).astype(np.int32)
        arrive = rng.integers(0, 2**62, 400).astype(np.int64)  # no room for codes
        arrive[::7] = arrive[::7] // 2**40  # some ties-prone small values
        values = rng.uniform(0, 1, 400)
        got = _group_columns(codes, arrive, values, values[::-1].copy(), 9)
        want = reference_group_columns(codes, arrive, values, values[::-1].copy(), 9)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("kind", ["clean", "late", "duplicated", "reordered"])
    def test_fold_matches_a_stable_sort_of_every_row(self, kind):
        rng = np.random.default_rng(11)
        names = tuple(f"T{k}" for k in range(12))
        chunks = disorder(second_chunks(rng, len(names)), kind, rng)
        log, ingested = QueryLog(), []
        for i, (codes, arrive, response, rows) in enumerate(chunks):
            log.append_chunk(names, codes, arrive, response, rows)
            ingested += [
                (names[c], a, r, x) for c, a, r, x in zip(codes, arrive, response, rows)
            ]
            if i % 7 == 3:
                log.queries_of(names[i % len(names)])  # reads between chunks
            elif i % 5 == 0:
                log.fold()
        for sql_id in log.sql_ids:
            mine = [row[1:] for row in ingested if row[0] == sql_id]
            mine = sorted(mine, key=lambda row: row[0])  # stable: ties in ingest order
            tq = log.queries_of(sql_id)
            assert tq.arrive_ms.tolist() == [row[0] for row in mine]
            assert tq.response_ms.tolist() == [row[1] for row in mine]
            assert tq.examined_rows.tolist() == [row[2] for row in mine]
        assert sorted(log.sql_ids) == sorted({row[0] for row in ingested})
        assert log.total_queries == len(ingested)
