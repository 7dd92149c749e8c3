"""Cross-module property-based tests (hypothesis).

These check structural invariants that must hold for *any* input, not
just the fixtures: conservation laws of the aggregation pipeline,
idempotence of template normalization, partition properties of the
clustering, and monotonicity of the ranking metrics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import (
    TEMPLATE_METRICS,
    LogStore,
    TemplateMetricStore,
    aggregate_query_log,
)
from repro.core.rsql import _safe_corrcoef
from repro.core.session_estimation import CoverageFunction
from repro.dbsim import QueryLog, SecondBatch
from repro.evaluation.metrics import first_hit_rank, hits_at_k, reciprocal_rank
from repro.sqltemplate import normalize_statement, sql_id
from repro.telemetry import MetricsRegistry
from repro.timeseries import TimeSeries
from repro.workload.trends import ramp_profile, spike_profile


@st.composite
def query_batches(draw):
    """Random query logs with a handful of templates."""
    n_templates = draw(st.integers(1, 4))
    log = QueryLog()
    for i in range(n_templates):
        n = draw(st.integers(0, 40))
        if n == 0:
            continue
        arrive = draw(
            st.lists(st.integers(0, 29_999), min_size=n, max_size=n)
        )
        resp = draw(
            st.lists(st.floats(0.1, 5_000.0), min_size=n, max_size=n)
        )
        log.append(
            SecondBatch(
                f"Q{i}",
                np.asarray(sorted(arrive), dtype=np.int64),
                np.asarray(resp),
                np.ones(n),
            )
        )
    return log


@st.composite
def shuffled_batches(draw):
    """Per-template batches (arrivals in any order, frequent ties) in a
    shuffled ingest order, plus the points at which reads interleave."""
    batches = []
    for i in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 4))):
            arrive = draw(
                st.lists(st.integers(0, 59).map(lambda h: h * 500), min_size=1, max_size=12)
            )
            n = len(arrive)
            # Unique response times identify every row.
            first = sum(len(b) for b in batches)
            batches.append(
                SecondBatch(
                    f"Q{i}",
                    np.asarray(arrive, dtype=np.int64),
                    np.arange(first, first + n, dtype=np.float64),
                    np.full(n, float(i)),
                )
            )
    batches = draw(st.permutations(batches))
    return batches, draw(st.sets(st.integers(0, len(batches) - 1)))


class TestLogStoreWindowReads:
    @given(shuffled_batches(), st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_ingest_matches_stable_sorted_mask(self, drawn, t0, t1):
        batches, reads = drawn
        store = LogStore(registry=MetricsRegistry())
        for i, batch in enumerate(batches):
            if i in reads:
                for sid in store.sql_ids:
                    store.queries_in_window(sid, t0, t1)
            store.ingest_batch(batch)
        for sid in {b.sql_id for b in batches}:
            mine = [b for b in batches if b.sql_id == sid]
            arrive = np.concatenate([b.arrive_ms for b in mine])
            resp = np.concatenate([b.response_ms for b in mine])
            rows = np.concatenate([b.examined_rows for b in mine])
            keep = np.flatnonzero((arrive >= t0 * 1000) & (arrive < t1 * 1000))
            keep = keep[np.argsort(arrive[keep], kind="stable")]
            tq = store.queries_in_window(sid, t0, t1)
            np.testing.assert_array_equal(tq.arrive_ms, arrive[keep])
            np.testing.assert_array_equal(tq.response_ms, resp[keep])
            np.testing.assert_array_equal(tq.examined_rows, rows[keep])


class TestAggregationConservation:
    @given(query_batches())
    @settings(max_examples=50, deadline=None)
    def test_execution_counts_conserved(self, log):
        store = aggregate_query_log(log, start=0, end=30)
        total = sum(store.executions(sid).total() for sid in store.sql_ids)
        assert total == log.total_queries

    @given(query_batches())
    @settings(max_examples=50, deadline=None)
    def test_response_time_conserved(self, log):
        store = aggregate_query_log(log, start=0, end=30)
        aggregated = sum(
            store.get(sid, "total_tres").total() for sid in store.sql_ids
        )
        raw = sum(
            tq.response_ms.sum() for tq in log.iter_templates()
        )
        assert aggregated == pytest.approx(raw)

    @given(query_batches(), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_resample_conserves_counts(self, log, factor):
        store = aggregate_query_log(log, start=0, end=30)
        coarse = store.resample(factor)
        usable = (30 // factor) * factor
        for sid in store.sql_ids:
            fine_total = store.executions(sid).values[:usable].sum()
            assert coarse.executions(sid).total() == pytest.approx(fine_total)


class TestStoreResample:
    @given(
        st.integers(0, 4),
        st.integers(0, 130),
        st.integers(1, 70),
        st.sampled_from([1, 60]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_the_series_resample(self, n_templates, length, factor, interval, seed):
        # Each row of the matrix resample is TimeSeries.resample of that
        # row, bit for bit: sum for counts and totals, mean for avg_tres,
        # trailing seconds dropped when ``factor`` does not divide the length.
        rng = np.random.default_rng(seed)
        series = {
            f"T{i}": {m: rng.normal(0.0, 1e3, length) for m in TEMPLATE_METRICS}
            for i in range(n_templates)
        }
        store = TemplateMetricStore.from_series(100, 100 + length * interval, series, interval)
        coarse = store.resample(factor)
        assert coarse.sql_ids == store.sql_ids
        assert (coarse.interval, coarse.length) == (interval * factor, length // factor)
        for sql_id in store.sql_ids:
            for metric in TEMPLATE_METRICS:
                how = "mean" if metric == "avg_tres" else "sum"
                expected = store.get(sql_id, metric).resample(factor, how=how)
                got = coarse.get(sql_id, metric)
                assert got.values.tobytes() == expected.values.tobytes()
                assert (got.start, got.interval) == (expected.start, expected.interval)


class TestCoverageProperties:
    @given(query_batches())
    @settings(max_examples=50, deadline=None)
    def test_expected_session_integrates_to_total_response(self, log):
        arrive, end = log.all_intervals()
        cov = CoverageFunction(arrive, end - arrive)
        # Integral of the active-session process equals total busy time.
        total = cov(np.array([1e12]))[0]
        assert total == pytest.approx(float((end - arrive).sum()), rel=1e-9)

    @given(query_batches(), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_bucket_means_average_to_second_mean(self, log, k):
        arrive, end = log.all_intervals()
        cov = CoverageFunction(arrive, end - arrive)
        second = 3
        edges = second * 1000.0 + np.arange(k + 1) * (1000.0 / k)
        per_bucket = cov.expected_session(edges[:-1], edges[1:])
        whole = cov.expected_session(
            np.array([second * 1000.0]), np.array([(second + 1) * 1000.0])
        )[0]
        assert per_bucket.mean() == pytest.approx(whole, rel=1e-9, abs=1e-12)


class TestTemplateNormalization:
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=120))
    @settings(max_examples=100)
    def test_normalization_idempotent(self, sql):
        once = normalize_statement(sql)
        twice = normalize_statement(once)
        assert once == twice

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=50)
    def test_literal_invariance(self, a, b):
        ta = normalize_statement(f"SELECT * FROM t WHERE id = {a}")
        tb = normalize_statement(f"SELECT * FROM t WHERE id = {b}")
        assert ta == tb
        assert sql_id(ta) == sql_id(tb)


class TestSafeCorrcoef:
    @given(st.integers(2, 8), st.integers(3, 30), st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_symmetric_bounded_unit_diagonal(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(rows, cols))
        m[0] = 5.0  # force one constant row
        corr = _safe_corrcoef(m)
        assert corr.shape == (rows, rows)
        assert np.allclose(corr, corr.T)
        assert (np.abs(corr) <= 1.0 + 1e-12).all()
        assert (corr[0] == 0.0).all()  # constant row maps to zero
        for i in range(1, rows):
            assert corr[i, i] == pytest.approx(1.0)


class TestRankingMetricProperties:
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=30, unique=True),
        st.sets(st.integers(0, 30), min_size=1, max_size=10),
    )
    @settings(max_examples=100)
    def test_hits_monotone_in_k(self, ranked_ints, truth_ints):
        ranked = [str(i) for i in ranked_ints]
        truth = {str(i) for i in truth_ints}
        hits = [hits_at_k(ranked, truth, k) for k in range(1, len(ranked) + 1)]
        assert all(a <= b for a, b in zip(hits, hits[1:]))

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=30, unique=True),
        st.sets(st.integers(0, 30), min_size=1, max_size=10),
    )
    @settings(max_examples=100)
    def test_reciprocal_rank_consistent_with_first_hit(self, ranked_ints, truth_ints):
        ranked = [str(i) for i in ranked_ints]
        truth = {str(i) for i in truth_ints}
        rank = first_hit_rank(ranked, truth)
        rr = reciprocal_rank(ranked, truth)
        if rank is None:
            assert rr == 0.0
        else:
            assert rr == pytest.approx(1.0 / rank)
            assert ranked[rank - 1] in truth


class TestTrendProfiles:
    @given(st.integers(10, 500), st.integers(0, 500), st.floats(0.0, 50.0))
    @settings(max_examples=60)
    def test_spike_profile_bounds(self, duration, start, magnitude):
        start = min(start, duration)
        end = min(start + duration // 3, duration)
        p = spike_profile(duration, start, end, magnitude, ramp=10)
        lo, hi = min(1.0, magnitude), max(1.0, magnitude)
        assert (p >= lo - 1e-9).all() and (p <= hi + 1e-9).all()

    @given(st.integers(10, 500), st.integers(0, 499))
    @settings(max_examples=60)
    def test_ramp_profile_monotone(self, duration, start):
        start = min(start, duration)
        p = ramp_profile(duration, start, ramp=30)
        assert (np.diff(p) >= -1e-12).all()
        assert p.min() >= 0.0 and p.max() <= 1.0


class TestTimeSeriesProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
        st.integers(1, 10),
    )
    @settings(max_examples=60)
    def test_resample_sum_conserves_total(self, values, factor):
        ts = TimeSeries(np.asarray(values))
        usable = (len(values) // factor) * factor
        out = ts.resample(factor, how="sum")
        assert out.total() == pytest.approx(float(np.sum(values[:usable])), rel=1e-9, abs=1e-6)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    @settings(max_examples=60)
    def test_window_roundtrip(self, values):
        ts = TimeSeries(np.asarray(values), start=100)
        w = ts.window(ts.start, ts.end)
        assert np.array_equal(w.values, ts.values)
