"""Chaos faults against columnar block messages.

``ChaosBroker.publish_block`` must route blocks through the row-fault
pipeline (``__getattr__`` delegation to the inner broker would silently
bypass injection), every corruption mode must produce a block the
validators catch, and a consumer positioned behind the chaos facade
must quarantine the damage instead of aggregating it.
"""

import numpy as np
import pytest

from repro.chaos import ChaosBroker, FaultInjector, FaultPlan, FaultSpec, single_fault_plan
from repro.collection import Broker, aggregate_logstore
from repro.collection.blocks import (
    METRIC_BLOCK_DTYPE,
    QUERY_BLOCK_DTYPE,
    MetricBlock,
    QueryLogBlock,
    validate_metric_block,
    validate_query_block,
)
from repro.collection.quarantine import dead_letter_topic
from repro.fleet import InstanceDiagnosisEngine
from repro.telemetry import MetricsRegistry


def query_block(instance=""):
    data = np.array(
        [
            (0, 5_000, 10.0, 100.0),
            (0, 5_400, 20.0, 200.0),
            (0, 6_100, 30.0, 300.0),
            (1, 5_200, 5.0, 50.0),
        ],
        dtype=QUERY_BLOCK_DTYPE,
    )
    return QueryLogBlock(sql_ids=("q1", "q2"), data=data, instance=instance)


def metric_block(instance=""):
    data = np.array([(0, 5, 0.5), (0, 6, 0.7)], dtype=METRIC_BLOCK_DTYPE)
    return MetricBlock(metrics=("cpu",), data=data, instance=instance)


def chaos_broker(kind, rate=1.0, seed=7, registry=None, **params):
    registry = registry or MetricsRegistry()
    broker = Broker(registry=registry)
    injector = FaultInjector(
        single_fault_plan(kind, seed=seed, rate=rate, **params), registry=registry
    )
    return injector.wrap_broker(broker), broker, registry


class TestCorruptionModes:
    """Every deterministic block-corruption mode is validator-visible."""

    @pytest.mark.parametrize("draw", [i / 8 + 0.01 for i in range(8)])
    def test_corrupted_query_blocks_fail_validation(self, draw):
        inj = FaultInjector(
            single_fault_plan("corrupt", rate=1.0), registry=MetricsRegistry()
        )
        mangled = inj.corrupt(query_block(), draw)
        assert validate_query_block(mangled) is not None

    @pytest.mark.parametrize("draw", [i / 8 + 0.01 for i in range(8)])
    def test_corrupted_metric_blocks_fail_validation(self, draw):
        inj = FaultInjector(
            single_fault_plan("corrupt", rate=1.0), registry=MetricsRegistry()
        )
        mangled = inj.corrupt(metric_block(), draw)
        assert validate_metric_block(mangled) is not None

    def test_corruption_does_not_mutate_the_original(self):
        inj = FaultInjector(
            single_fault_plan("corrupt", rate=1.0), registry=MetricsRegistry()
        )
        block = query_block()
        before = block.data.copy()
        inj.corrupt(block, 0.4)
        np.testing.assert_array_equal(block.data, before)

    def test_skewed_blocks_stay_valid_with_exact_shift(self):
        inj = FaultInjector(
            single_fault_plan("clock_skew", rate=1.0), registry=MetricsRegistry()
        )
        qb = inj.skew(query_block(), 90)
        assert isinstance(qb, QueryLogBlock)
        assert validate_query_block(qb) is None
        np.testing.assert_array_equal(
            qb.data["arrive_ms"], query_block().data["arrive_ms"] + 90_000
        )
        mb = inj.skew(metric_block(), 90)
        assert isinstance(mb, MetricBlock)
        assert validate_metric_block(mb) is None
        np.testing.assert_array_equal(
            mb.data["timestamp"], metric_block().data["timestamp"] + 90
        )


class TestChaosPublishBlock:
    def test_dropped_blocks_never_reach_the_topic(self):
        chaos, broker, registry = chaos_broker("drop", rate=1.0)
        message = chaos.publish_block("query_logs.db-a", query_block())
        assert message.offset == -1  # chaos sentinel: nothing was retained
        assert broker.retained("query_logs.db-a") == 0
        assert (
            registry.get("chaos_faults_injected_total", kind="drop").value == 1
        )

    def test_corrupted_blocks_are_delivered_then_quarantined_downstream(self):
        chaos, broker, registry = chaos_broker("corrupt", rate=1.0)
        chaos.publish_block("query_logs.db-a", query_block())
        messages = broker.read("query_logs.db-a", 0, 10)
        assert len(messages) == 1
        # Chaos delivered a damaged block — but one the validator catches.
        assert validate_query_block(messages[0].value) is not None

    def test_invalid_blocks_are_quarantined_before_injection(self):
        chaos, broker, registry = chaos_broker("drop", rate=1.0)
        bad = QueryLogBlock(sql_ids=(), data=query_block().data)
        assert chaos.publish_block("query_logs.db-a", bad) is None
        dead = broker.read("dead_letter.query_logs.db-a", 0, 10)
        assert len(dead) == 1 and dead[0].key == "missing_dictionary"
        # The quarantine consumed the message; no drop fault fired.
        assert registry.get("chaos_faults_injected_total", kind="drop") is None

    def test_duplicate_blocks_double_aggregates_honestly(self):
        chaos, broker, _ = chaos_broker("duplicate", rate=1.0)
        chaos.publish_block("query_logs.db-a", query_block("db-a"))
        assert broker.retained("query_logs.db-a") == 2
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=broker.registry)
        engine.step()
        # Both copies aggregate — duplication is a data fault the
        # detector layer sees, not one the transport hides.
        store = aggregate_logstore(engine.logstore, 0, 10)
        assert store.get("q1", "#execution").values.sum() == 6


class TestDownstreamResilience:
    def test_aggregator_skips_chaos_corrupted_blocks(self):
        """The engine's drain validates blocks and quarantines the damage."""
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        injector = FaultInjector(
            FaultPlan(
                name="mixed",
                seed=3,
                specs=(FaultSpec(kind="corrupt", rate=0.5),),
            ),
            registry=registry,
        )
        chaos = injector.wrap_broker(broker)
        for _ in range(20):
            chaos.publish_block("query_logs.db-a", query_block("db-a"))
        chaos.flush()
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=registry)
        engine.step()
        dead = broker.read(dead_letter_topic("query_logs.db-a"), 0, 100)
        quarantined = len(dead)
        carved_rows = sum(len(m.value["record"]) for m in dead)
        delivered_rows = registry.get(
            "service_querylog_block_records_total", instance="db-a"
        ).value
        # Corruption acts per row: the hit rows of a block are carved
        # into one damaged block, the rest of the block ingests.
        assert 0 < quarantined <= 20, "corrupt rate 0.5 over 80 rows must hit"
        assert delivered_rows > 0, "corrupt rate 0.5 over 80 rows must miss"
        # The store only absorbed intact rows (an emptied carve holds none).
        assert engine.logstore.total_queries() == delivered_rows
        assert delivered_rows + carved_rows <= 80

    def test_fault_counts_are_deterministic_across_runs(self):
        def run():
            chaos, broker, registry = chaos_broker("corrupt", rate=0.5, seed=42)
            for _ in range(30):
                chaos.publish_block("query_logs", query_block())
            damaged = sum(
                1
                for m in broker.read("query_logs", 0, 100)
                if validate_query_block(m.value) is not None
            )
            return damaged

        assert run() == run() > 0


class TestVerdictUnderChaos:
    """The publish-side verdict survives only what leaves a block valid:
    non-empty row subsets (drop, duplicate and late remainders, reorder
    pass-through).  Corrupted and clock-skewed pieces are validated by
    the consumer, with the same reasons as before."""

    @pytest.mark.parametrize("kind", ["drop", "duplicate", "late", "reorder"])
    def test_row_subsets_keep_the_verdict(self, kind):
        chaos, broker, _ = chaos_broker(kind, rate=0.5, seed=11)
        for _ in range(20):
            chaos.publish_block("query_logs.db-a", query_block("db-a"))
        chaos.flush()
        messages = broker.read("query_logs.db-a", 0, 1000)
        assert messages
        for message in messages:
            assert message.validated
            assert validate_query_block(message.value) is None

    def test_negative_clock_skew_is_revalidated_and_quarantined(self):
        chaos, broker, registry = chaos_broker("clock_skew", rate=1.0, skew_s=-10)
        chaos.publish_block("query_logs.db-a", query_block("db-a"))
        (message,) = broker.read("query_logs.db-a", 0, 10)
        assert not message.validated
        assert message.value.data["arrive_ms"].min() < 0
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=registry)
        engine.step()
        dead = broker.read(dead_letter_topic("query_logs.db-a"), 0, 10)
        assert [m.key for m in dead] == ["bad_type:arrive_ms"]
        assert engine.logstore.total_queries() == 0

    def test_corrupted_pieces_keep_their_quarantine_reasons(self):
        registry = MetricsRegistry()
        chaos, broker, _ = chaos_broker("corrupt", rate=0.5, seed=5, registry=registry)
        for _ in range(30):
            chaos.publish_block("query_logs.db-a", query_block("db-a"))
            chaos.publish_block("performance_metrics.db-a", metric_block("db-a"))
        expected = {}
        for topic, validate in (
            ("query_logs.db-a", validate_query_block),
            ("performance_metrics.db-a", validate_metric_block),
        ):
            expected[topic] = []
            for message in broker.read(topic, 0, 1000):
                reason = validate(message.value)
                if message.validated:
                    assert reason is None
                elif reason is not None:
                    expected[topic].append(reason)
            assert expected[topic], f"corrupt rate 0.5 must damage {topic}"
        engine = InstanceDiagnosisEngine(broker, "db-a", registry=registry)
        engine.step()
        for topic, reasons in expected.items():
            dead = broker.read(dead_letter_topic(topic), 0, 1000)
            assert [m.key for m in dead] == reasons
