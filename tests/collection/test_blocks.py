"""Columnar block types, pickle transport, validation, and broker
publication."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import Broker
from repro.collection.blocks import (
    BLOCK_KEY,
    METRIC_BLOCK_DTYPE,
    QUERY_BLOCK_DTYPE,
    MetricBlock,
    QueryLogBlock,
    metric_block_from_metrics,
    query_block_from_log,
    split_by_second,
    split_query_block,
    validate_metric_block,
    validate_query_block,
)
from repro.dbsim.monitor import InstanceMetrics
from repro.dbsim.query import QueryLog, SecondBatch
from repro.telemetry.tracing import TraceContext
from repro.timeseries import TimeSeries


def _batch(sql_id="q1", arrive=(1000, 2500, 2600), resp=None, rows=None):
    arrive_ms = np.asarray(arrive, dtype=np.int64)
    n = len(arrive_ms)
    return SecondBatch(
        sql_id=sql_id,
        arrive_ms=arrive_ms,
        response_ms=np.asarray(resp if resp is not None else np.arange(n) + 1.0),
        examined_rows=np.asarray(rows if rows is not None else np.arange(n) * 10.0),
    )


def _query_block(**kwargs):
    log = QueryLog()
    log.append(_batch("q1"))
    log.append(_batch("q2", arrive=(500, 900)))
    return query_block_from_log(log, **kwargs)


def _metric_block(instance=""):
    metrics = InstanceMetrics(
        series={
            "cpu": TimeSeries(np.array([0.5, 0.6]), start=10, name="cpu"),
            "active_session": TimeSeries(
                np.array([4.0]), start=10, name="active_session"
            ),
        }
    )
    return metric_block_from_metrics(metrics, instance=instance)


class TestConstruction:
    def test_from_batches_builds_dictionary_and_rows(self):
        block = _query_block(instance="db-a")
        assert block.sql_ids == ("q1", "q2")
        assert len(block) == 5
        assert block.n_templates == 2
        assert block.instance == "db-a"
        assert block.data.dtype == QUERY_BLOCK_DTYPE
        assert validate_query_block(block) is None

    def test_iter_template_batches_round_trips_per_template(self):
        block = _query_block()
        by_id = {b.sql_id: b for b in block.iter_template_batches()}
        assert set(by_id) == {"q1", "q2"}
        np.testing.assert_array_equal(by_id["q1"].arrive_ms, [1000, 2500, 2600])
        np.testing.assert_array_equal(by_id["q2"].arrive_ms, [500, 900])
        # Arrival order is restored even if the rows were shuffled.
        shuffled = QueryLogBlock(
            sql_ids=block.sql_ids, data=block.data[::-1].copy()
        )
        for batch in shuffled.iter_template_batches():
            assert (np.diff(batch.arrive_ms) >= 0).all()

    def test_metric_block_series_iteration(self):
        block = _metric_block()
        assert block.metrics == ("cpu", "active_session")
        assert block.data.dtype == METRIC_BLOCK_DTYPE
        series = {name: (ts, values) for name, ts, values in block.iter_metric_series()}
        np.testing.assert_array_equal(series["cpu"][0], [10, 11])
        np.testing.assert_array_equal(series["cpu"][1], [0.5, 0.6])
        np.testing.assert_array_equal(series["active_session"][1], [4.0])

    def test_split_query_block_bounds_rows_and_shares_dictionary(self):
        block = _query_block()
        pieces = split_query_block(block, 2)
        assert [len(p) for p in pieces] == [2, 2, 1]
        assert all(p.sql_ids is block.sql_ids for p in pieces)
        rejoined = np.concatenate([p.data for p in pieces])
        np.testing.assert_array_equal(rejoined, block.data)
        with pytest.raises(ValueError):
            split_query_block(block, 0)


    def test_split_by_second_cuts_one_block_per_second(self):
        pieces = split_by_second(_query_block())
        # q1 arrives at seconds 1, 2, 2 and q2 at 0, 0.
        assert [len(p) for p in pieces] == [2, 1, 2]
        for second, piece in enumerate(pieces):
            assert set(piece.data["arrive_ms"] // 1000) == {second}
            assert piece.sql_ids == ("q1", "q2")  # shared dictionary
            assert validate_query_block(piece) is None
        metric_pieces = split_by_second(_metric_block())
        assert [sorted(p.data["timestamp"]) for p in metric_pieces] == [[10, 10], [11]]
        # Within a second, rows keep the dictionary (series) order.
        assert [metric_pieces[0].metrics[i] for i in metric_pieces[0].data["metric"]] == [
            "cpu", "active_session",
        ]


class TestEnvelope:
    @pytest.mark.parametrize("make", [_query_block, _metric_block], ids=["query", "metric"])
    def test_stamped_swaps_only_the_envelope(self, make):
        block = make(instance="db-a")
        ctx = TraceContext(trace_id="t1", span_id="s1", process=7)
        stamped = block.stamped(ctx, 1234.5)
        assert (stamped.trace, stamped.created_unix) == (ctx, 1234.5)
        assert stamped.data is block.data
        assert stamped.instance == "db-a"
        assert type(stamped) is type(block)
        unstamped = stamped.stamped(None, 0.0)
        assert (unstamped.trace, unstamped.created_unix) == (None, 0.0)
        assert unstamped == block


class TestPickleTransport:
    """Blocks reach shard workers by pickling: nothing may be lost."""

    def test_query_round_trip(self):
        block = _query_block(instance="db-a")
        block = QueryLogBlock(
            sql_ids=block.sql_ids,
            data=block.data,
            instance="db-a",
            statements=("SELECT 1", "SELECT 2"),
            trace=TraceContext(trace_id="t1", span_id="s1", process=3),
            created_unix=1700000000.25,
        )
        copy = pickle.loads(pickle.dumps(block))
        assert isinstance(copy, QueryLogBlock)
        assert copy.sql_ids == block.sql_ids
        assert copy.instance == "db-a"
        assert copy.statements == ("SELECT 1", "SELECT 2")
        assert copy.trace == block.trace
        assert copy.created_unix == block.created_unix
        assert copy.data.dtype == QUERY_BLOCK_DTYPE
        np.testing.assert_array_equal(copy.data, block.data)

    def test_metric_round_trip(self):
        block = _metric_block(instance="db-b")
        copy = pickle.loads(pickle.dumps(block))
        assert isinstance(copy, MetricBlock)
        assert copy.metrics == block.metrics
        assert copy.instance == "db-b"
        assert copy.data.dtype == METRIC_BLOCK_DTYPE
        np.testing.assert_array_equal(copy.data, block.data)

    def test_read_only_rows_round_trip(self):
        # A captured feed holds read-only row views; they must pickle.
        block = _query_block()
        rows = block.data.view()
        rows.flags.writeable = False
        copy = pickle.loads(pickle.dumps(block.with_rows(rows)))
        np.testing.assert_array_equal(copy.data, block.data)
        assert validate_query_block(copy) is None


class TestValidation:
    def test_valid_blocks_pass(self):
        assert validate_query_block(_query_block()) is None
        assert validate_metric_block(_metric_block()) is None

    def test_rejects_foreign_objects(self):
        assert validate_query_block({"second": 1}) == "not_a_block"
        assert validate_metric_block(b"bytes") == "not_a_block"

    def test_rejects_empty_rows_and_missing_dictionary(self):
        block = _query_block()
        assert (
            validate_query_block(QueryLogBlock(block.sql_ids, block.data[:0]))
            == "bad_shape:data"
        )
        assert (
            validate_query_block(QueryLogBlock((), block.data))
            == "missing_dictionary"
        )

    def test_rejects_out_of_range_template(self):
        block = _query_block()
        data = block.data.copy()
        data["template"][0] = 99
        assert (
            validate_query_block(QueryLogBlock(block.sql_ids, data))
            == "bad_index:template"
        )

    def test_rejects_non_finite_columns(self):
        block = _query_block()
        data = block.data.copy()
        data["response_ms"][1] = np.nan
        assert (
            validate_query_block(QueryLogBlock(block.sql_ids, data))
            == "non_finite:response_ms"
        )
        mblock = _metric_block()
        mdata = mblock.data.copy()
        mdata["value"][0] = np.inf
        assert (
            validate_metric_block(MetricBlock(mblock.metrics, mdata))
            == "non_finite:value"
        )

    def test_rejects_negative_timestamps(self):
        mblock = _metric_block()
        mdata = mblock.data.copy()
        mdata["timestamp"][0] = -5
        assert (
            validate_metric_block(MetricBlock(mblock.metrics, mdata))
            == "bad_type:timestamp"
        )

    def test_rejects_statement_dictionary_mismatch(self):
        block = _query_block()
        bad = QueryLogBlock(
            sql_ids=block.sql_ids, data=block.data, statements=("only one",)
        )
        assert validate_query_block(bad) == "length_mismatch:statements"


class TestBrokerPublication:
    def test_publish_block_counts_batch_telemetry(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        block = _query_block(instance="db-a")
        message = broker.publish_block("query_logs.db-a", block)
        assert message is not None
        assert message.key == BLOCK_KEY
        # The published block is the same payload stamped with the
        # publish span's trace context and the publish wall-time.
        assert message.value.data is block.data
        assert message.value.sql_ids == block.sql_ids
        assert message.value.trace is not None
        assert message.value.trace.trace_id
        assert message.value.created_unix > 0
        # The publish itself was traced.
        publish_span = broker.tracer.last_root()
        assert publish_span.name == "broker.publish_block"
        assert publish_span.attrs["span_id"] == message.value.trace.span_id
        assert (
            registry.get("broker_blocks_published_total", topic="query_logs.db-a").value
            == 1
        )
        assert (
            registry.get("broker_block_records_total", topic="query_logs.db-a").value
            == len(block)
        )
        assert (
            registry.get("broker_block_bytes_total", topic="query_logs.db-a").value
            == block.nbytes
        )

    def test_publish_block_quarantines_invalid_blocks(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        block = _query_block()
        bad = QueryLogBlock(sql_ids=(), data=block.data)
        assert broker.publish_block("query_logs.db-a", bad) is None
        assert broker.retained("query_logs.db-a") == 0
        dead = broker.read("dead_letter.query_logs.db-a", 0, 10)
        assert len(dead) == 1
        assert dead[0].key == "missing_dictionary"
        assert (
            registry.get(
                "collector_quarantined_total",
                topic="query_logs.db-a",
                reason="missing_dictionary",
            ).value
            == 1
        )

    def test_publish_block_rejects_non_blocks(self):
        broker = Broker()
        assert broker.publish_block("query_logs.db-a", {"second": 1}) is None
        assert broker.retained("query_logs.db-a") == 0


@st.composite
def query_blocks(draw):
    n_templates = draw(st.integers(min_value=1, max_value=4))
    sql_ids = tuple(f"q{i}" for i in range(n_templates))
    n_rows = draw(st.integers(min_value=1, max_value=40))
    data = np.empty(n_rows, dtype=QUERY_BLOCK_DTYPE)
    data["template"] = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_templates - 1),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    data["arrive_ms"] = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    finite = st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    data["response_ms"] = draw(st.lists(finite, min_size=n_rows, max_size=n_rows))
    data["examined_rows"] = draw(st.lists(finite, min_size=n_rows, max_size=n_rows))
    instance = draw(st.sampled_from(["", "db-a", "db-zz"]))
    statements = draw(
        st.one_of(
            st.just(()),
            st.lists(st.text(max_size=20), min_size=n_templates, max_size=n_templates).map(tuple),
        )
    )
    # Blocks randomly carry a trace context and a publish stamp
    # (absent on both = the unstamped shape).
    trace = draw(
        st.one_of(
            st.none(),
            st.builds(
                TraceContext,
                trace_id=st.text(
                    alphabet="0123456789abcdef", min_size=1, max_size=32
                ),
                span_id=st.text(
                    alphabet="0123456789abcdef", min_size=1, max_size=32
                ),
                process=st.integers(min_value=0, max_value=2**31 - 1),
            ),
        )
    )
    created_unix = draw(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=1.0, max_value=4e9,
                allow_nan=False, allow_infinity=False,
            ),
        )
    )
    return QueryLogBlock(
        sql_ids=sql_ids,
        data=data,
        instance=instance,
        statements=statements,
        trace=trace,
        created_unix=created_unix,
    )


class TestPickleProperties:
    @settings(max_examples=60, deadline=None)
    @given(block=query_blocks())
    def test_round_trip_is_lossless(self, block):
        copy = pickle.loads(pickle.dumps(block))
        assert isinstance(copy, QueryLogBlock)
        assert copy.sql_ids == block.sql_ids
        assert copy.instance == block.instance
        assert copy.statements == block.statements
        assert copy.trace == block.trace
        assert copy.created_unix == block.created_unix
        assert copy.data.dtype == block.data.dtype
        np.testing.assert_array_equal(copy.data, block.data)
        # Validation agrees across the process boundary.
        assert validate_query_block(copy) == validate_query_block(block)
