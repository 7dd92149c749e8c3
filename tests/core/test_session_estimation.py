"""Tests for individual active-session estimation (paper Sec. IV-C)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import LogStore
from repro.core import CoverageFunction, SessionEstimationMode, SessionEstimator
from repro.dbsim import QueryLog, SecondBatch
from repro.timeseries import TimeSeries


class TestCoverageFunction:
    def test_single_interval(self):
        cov = CoverageFunction(np.array([1000.0]), np.array([500.0]))
        # Query active on [1000, 1500).
        assert cov(np.array([1000.0]))[0] == 0.0
        assert cov(np.array([1250.0]))[0] == 250.0
        assert cov(np.array([2000.0]))[0] == 500.0

    def test_sum_over_intervals(self):
        cov = CoverageFunction(np.array([0.0, 100.0]), np.array([50.0, 50.0]))
        assert cov(np.array([200.0]))[0] == 100.0

    def test_expected_session_full_overlap(self):
        # One query covering the whole evaluation interval → session 1.
        cov = CoverageFunction(np.array([0.0]), np.array([10_000.0]))
        out = cov.expected_session(np.array([1000.0]), np.array([2000.0]))
        assert out[0] == pytest.approx(1.0)

    def test_expected_session_partial_overlap(self):
        cov = CoverageFunction(np.array([1500.0]), np.array([250.0]))
        out = cov.expected_session(np.array([1000.0]), np.array([2000.0]))
        assert out[0] == pytest.approx(0.25)

    def test_empty_interval_set(self):
        cov = CoverageFunction(np.zeros(0), np.zeros(0))
        assert cov.expected_session(np.array([0.0]), np.array([1000.0]))[0] == 0.0

    def test_invalid_interval_rejected(self):
        cov = CoverageFunction(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            cov.expected_session(np.array([5.0]), np.array([5.0]))

    @given(st.integers(1, 30), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_property_monotone_nondecreasing(self, n, seed):
        rng = np.random.default_rng(seed)
        arrive = rng.uniform(0, 10_000, n)
        resp = rng.uniform(1, 2_000, n)
        cov = CoverageFunction(arrive, resp)
        xs = np.sort(rng.uniform(-1_000, 20_000, 50))
        values = cov(xs)
        assert (np.diff(values) >= -1e-9).all()
        assert values[0] >= -1e-9
        # Total coverage equals the summed durations once past all ends.
        assert cov(np.array([1e9]))[0] == pytest.approx(resp.sum())


def _make_logstore(batches):
    log = QueryLog()
    for b in batches:
        log.append(b)
    store = LogStore()
    store.ingest_query_log(log)
    return store


def _batch(sql_id, arrive, resp):
    arrive = np.asarray(arrive, dtype=np.int64)
    resp = np.asarray(resp, dtype=np.float64)
    return SecondBatch(sql_id, arrive, resp, np.ones(len(arrive)))


class TestEstimatorModes:
    def _setup(self):
        # Template A: one long query covering seconds 0-9 entirely.
        # Template B: short queries in second 5.
        store = _make_logstore(
            [
                _batch("A", [0], [10_000.0]),
                _batch("B", [5_100, 5_400], [200.0, 200.0]),
            ]
        )
        observed = TimeSeries(np.array([1.0] * 5 + [1.0] * 5), start=0)
        return store, observed

    def test_no_buckets_expectation(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.NO_BUCKETS).estimate(
            store, ["A", "B"], observed
        )
        assert est.get("A").values[3] == pytest.approx(1.0)
        # B: 400 ms of activity within second 5 → expectation 0.4.
        assert est.get("B").values[5] == pytest.approx(0.4)
        assert est.total.values[5] == pytest.approx(1.4)

    def test_response_time_mode(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.RESPONSE_TIME).estimate(
            store, ["A", "B"], observed
        )
        # A's whole 10 s response is attributed to its arrival second.
        assert est.get("A").values[0] == pytest.approx(10.0)
        assert est.get("A").values[5] == 0.0
        assert est.get("B").values[5] == pytest.approx(0.4)

    def test_bucket_mode_shapes(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.BUCKETS, buckets=10).estimate(
            store, ["A", "B"], observed
        )
        assert len(est.selected_buckets) == 10
        assert (est.selected_buckets >= 0).all() and (est.selected_buckets < 10).all()
        assert est.get("A").values[3] == pytest.approx(1.0)

    def test_unknown_template_zeros(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.BUCKETS).estimate(
            store, ["A"], observed
        )
        assert est.get("ZZZ").total() == 0.0

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            SessionEstimator(buckets=0)


class TestBucketSelectionAccuracy:
    def test_buckets_recover_true_sampling_instant(self):
        # The observed value is sampled at a known instant inside each
        # second; bucket selection should pick (nearly) that bucket.
        rng = np.random.default_rng(0)
        n_seconds, n_queries = 30, 3000
        arrive = np.sort(rng.uniform(0, n_seconds * 1000.0, n_queries))
        resp = rng.exponential(400.0, n_queries) + 50.0
        log = QueryLog()
        log.append(
            SecondBatch(
                "Q",
                arrive.astype(np.int64),
                resp,
                np.ones(n_queries),
            )
        )
        store = LogStore()
        store.ingest_query_log(log)

        # True sampling instants: fixed offset 730 ms into each second.
        from repro.dbsim.monitor import ActiveSessionSampler

        sampler = ActiveSessionSampler(log)
        t3 = np.arange(n_seconds) * 1000.0 + 730.0
        observed = TimeSeries(sampler.active_at(t3).astype(float), start=0)

        est10 = SessionEstimator(SessionEstimationMode.BUCKETS, buckets=10).estimate(
            store, ["Q"], observed
        )
        est1 = SessionEstimator(SessionEstimationMode.NO_BUCKETS).estimate(
            store, ["Q"], observed
        )
        err10 = np.abs(est10.total.values - observed.values).mean()
        err1 = np.abs(est1.total.values - observed.values).mean()
        assert err10 <= err1  # bucket selection must not hurt
        # Selected buckets should concentrate near index 7 (730 ms).
        med = np.median(est10.selected_buckets)
        assert 5 <= med <= 9


class TestMultiSecondSpan:
    def test_span_extension_runs_and_matches_quality(self):
        # Paper Sec. IV-C extension: when SHOW STATUS may finish outside
        # [t, t+1), the bucket search extends over N seconds.  With the
        # sample actually inside the second, the extension must not hurt.
        rng = np.random.default_rng(5)
        n_seconds, n_queries = 20, 1500
        arrive = np.sort(rng.uniform(0, n_seconds * 1000.0, n_queries))
        resp = rng.exponential(300.0, n_queries) + 50.0
        log = QueryLog()
        log.append(SecondBatch("Q", arrive.astype(np.int64), resp, np.ones(n_queries)))
        store = LogStore()
        store.ingest_query_log(log)
        from repro.dbsim.monitor import ActiveSessionSampler

        sampler = ActiveSessionSampler(log)
        t3 = np.arange(n_seconds) * 1000.0 + 400.0
        observed = TimeSeries(sampler.active_at(t3).astype(float), start=0)
        est1 = SessionEstimator(SessionEstimationMode.BUCKETS, buckets=10).estimate(
            store, ["Q"], observed
        )
        est2 = SessionEstimator(
            SessionEstimationMode.BUCKETS, buckets=10, span_seconds=2
        ).estimate(store, ["Q"], observed)
        err1 = np.abs(est1.total.values - observed.values).mean()
        err2 = np.abs(est2.total.values - observed.values).mean()
        assert err2 <= err1 + 0.5
        assert (est2.selected_buckets < 20).all()

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            SessionEstimator(span_seconds=0)


def _exact_reference(queries, ts, n, buckets, span, observed):
    """Bucket selection and per-template values from per-query overlaps,
    each sum taken exactly with ``math.fsum``."""
    width = 1000.0 / buckets

    def expected(rows, lo):
        overlaps = (max(0.0, min(a + r, lo + width) - max(a, lo)) for a, r in rows)
        return math.fsum(overlaps) / width

    pooled_rows = [row for rows in queries.values() for row in rows]
    lows = [
        [(ts + i) * 1000.0 + j * width for j in range(buckets * span)] for i in range(n)
    ]
    pooled = np.array([[expected(pooled_rows, lo) for lo in row] for row in lows])
    selected = np.argmin(np.abs(pooled - observed[:, None]), axis=1)
    per_template = {
        sql_id: np.array([expected(rows, lows[i][selected[i]]) for i in range(n)])
        for sql_id, rows in queries.items()
    }
    return selected, per_template


class TestOnePassEstimation:
    """The pooled grid estimator against an exact per-query reference."""

    @given(
        st.sampled_from([1, 3, 10]),
        st.sampled_from([1, 2]),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_exact_reference(self, buckets, span, n, seed):
        rng = np.random.default_rng(seed)
        ts = 400
        queries = {}
        for t in range(int(rng.integers(1, 4))):
            k = int(rng.integers(0, 25))
            # Arrivals from 3 s before ts; long queries run past te.
            arrive = rng.integers((ts - 3) * 1000, (ts + n) * 1000, k)
            long = rng.random(k) < 0.3
            response = np.where(
                long, rng.uniform(1_000, 5_000, k), rng.exponential(60.0, k) + 0.5
            )
            queries[f"T{t}"] = list(zip(arrive.tolist(), response.tolist()))
        # One query always starts before ts and ends after te.
        queries["T0"].append(((ts - 2) * 1000 + 17, (n + 3) * 1000.5))
        observed = rng.integers(0, 4, n).astype(float)
        store = _make_logstore(
            [_batch(sid, [a for a, _ in rows], [r for _, r in rows]) for sid, rows in queries.items()]
        )
        mode = SessionEstimationMode.NO_BUCKETS if buckets == 1 else SessionEstimationMode.BUCKETS
        est = SessionEstimator(mode, buckets=buckets, span_seconds=span).estimate(
            store, list(queries), TimeSeries(observed, start=ts)
        )

        selected, expected = _exact_reference(
            queries, ts, n, buckets, span if buckets > 1 else 1, observed
        )
        if buckets == 1:
            assert len(est.selected_buckets) == 0
        else:
            np.testing.assert_array_equal(est.selected_buckets, selected)
        for sql_id, values in expected.items():
            np.testing.assert_allclose(est.get(sql_id).values, values, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            est.total.values, np.sum(list(expected.values()), axis=0), rtol=0, atol=1e-9
        )

    def test_memory_stays_below_the_full_grid(self):
        # Paper-scale template count and window, a few rows per template:
        # a templates x seconds x K float64 grid would be 288 MB.
        n_templates, n, buckets, ts = 2_000, 1_800, 10, 1_000
        rng = np.random.default_rng(3)
        log = QueryLog()
        for t in range(n_templates):
            arrive = rng.integers(ts * 1000, (ts + n) * 1000, 3)
            log.append(SecondBatch(f"T{t}", arrive, rng.exponential(200.0, 3), np.ones(3)))
        store = LogStore()
        store.ingest_query_log(log)
        observed = TimeSeries(rng.integers(0, 3, n).astype(float), start=ts)
        estimator = SessionEstimator(SessionEstimationMode.BUCKETS, buckets=buckets)
        sql_ids = [f"T{t}" for t in range(n_templates)]

        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            est = estimator.estimate(store, sql_ids, observed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < n_templates * n * buckets * 8 / 4
        assert est.total.values.sum() == pytest.approx(
            sum(est.get(sid).values.sum() for sid in sql_ids)
        )

    def test_response_time_mode_sums_in_row_order(self):
        # Estimate-by-RT is one bincount over template x second; each bin
        # must add its rows in arrival order, as a per-template loop did.
        rng = np.random.default_rng(11)
        arrive = np.sort(rng.integers(0, 5_000, 400))
        response = rng.exponential(300.0, 400)
        store = _make_logstore([_batch("A", arrive, response), _batch("B", arrive[::2], response[::2])])
        est = SessionEstimator(SessionEstimationMode.RESPONSE_TIME).estimate(
            store, ["A", "B"], TimeSeries(np.zeros(5), start=0)
        )
        for sql_id, (a, r) in {"A": (arrive, response), "B": (arrive[::2], response[::2])}.items():
            expected = np.bincount(a // 1000, weights=r, minlength=5) / 1000.0
            np.testing.assert_array_equal(est.get(sql_id).values, expected)
