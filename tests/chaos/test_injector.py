"""Tests for the deterministic fault injector and its broker facades."""

import numpy as np
import pytest

from repro.chaos import (
    ChaosBroker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    InjectedWorkerHang,
    single_fault_plan,
)
from repro.chaos.injector import _uniform
from repro.collection.blocks import METRIC_BLOCK_DTYPE, MetricBlock, validate_metric_block
from repro.collection.stream import Broker
from repro.telemetry import MetricsRegistry


def make_injector(plan: FaultPlan) -> FaultInjector:
    return FaultInjector(plan, registry=MetricsRegistry())


def metric_block(t: int, rows: int = 1) -> MetricBlock:
    """``rows`` samples of one metric at seconds ``t, t + 1, ...``."""
    data = np.zeros(rows, dtype=METRIC_BLOCK_DTYPE)
    data["timestamp"] = np.arange(t, t + rows)
    data["value"] = 1.0
    return MetricBlock(metrics=("active_session",), data=data)


def first_timestamp(message) -> int:
    return int(message.value.data["timestamp"][0])


class TestDeterminism:
    def test_uniform_is_pure_and_bounded(self):
        a = _uniform(7, "drop", "metrics", 3)
        b = _uniform(7, "drop", "metrics", 3)
        assert a == b
        assert 0.0 <= a < 1.0
        assert _uniform(8, "drop", "metrics", 3) != a

    def test_hit_repeats_bit_for_bit(self):
        inj = make_injector(single_fault_plan("drop", seed=7))
        spec = inj.plan.specs[0]
        decisions = [inj.hit(spec, "metrics", i) for i in range(200)]
        again = [inj.hit(spec, "metrics", i) for i in range(200)]
        assert decisions == again
        # The default 10% rate should land in a sane band over 200 draws.
        assert 5 <= sum(decisions) <= 40

    def test_row_draws_repeat_bit_for_bit(self):
        inj = make_injector(single_fault_plan("drop", seed=7))
        spec = inj.plan.specs[0]
        rows = inj.hits(spec, 500, "metrics", 3)
        np.testing.assert_array_equal(rows, inj.hits(spec, 500, "metrics", 3))
        assert not np.array_equal(rows, inj.hits(spec, 500, "metrics", 4))
        assert 20 <= rows.sum() <= 80

    def test_spec_for_respects_topic_pattern(self):
        plan = FaultPlan(
            name="p", seed=1,
            specs=(FaultSpec(kind="drop", rate=1.0, topic="metrics.*"),),
        )
        inj = make_injector(plan)
        assert inj.spec_for("drop", "metrics.db-00") is not None
        assert inj.spec_for("drop", "query_logs.db-00") is None

    def test_dead_letter_topics_are_exempt(self):
        inj = make_injector(single_fault_plan("drop", rate=1.0))
        assert inj.spec_for("drop", "dead_letter.query_logs") is None


class TestStreamFaults:
    def wrapped(self, kind: str, rate: float = 1.0, **params):
        inj = make_injector(single_fault_plan(kind, seed=7, rate=rate, **params))
        broker = Broker(registry=MetricsRegistry())
        return inj.wrap_broker(broker), broker, inj

    def test_drop_loses_messages(self):
        chaos, broker, inj = self.wrapped("drop")
        for i in range(10):
            chaos.publish("metrics.db-00", "db-00", metric_block(i))
        assert broker.size("metrics.db-00") == 0
        assert inj.injected["drop"] == 10

    def test_duplicate_delivers_twice(self):
        chaos, broker, inj = self.wrapped("duplicate")
        for i in range(10):
            chaos.publish("metrics.db-00", "db-00", metric_block(i))
        assert broker.size("metrics.db-00") == 20
        assert inj.injected["duplicate"] == 10

    def test_corrupt_mutates_payloads(self):
        chaos, broker, inj = self.wrapped("corrupt")
        consumer = broker.consumer("metrics.db-00")
        for i in range(10):
            chaos.publish("metrics.db-00", "db-00", metric_block(i))
        messages = consumer.poll()
        assert len(messages) == 10
        assert inj.injected["corrupt"] == 10
        assert all(validate_metric_block(m.value) is not None for m in messages)

    def test_clock_skew_shifts_timestamps(self):
        chaos, broker, inj = self.wrapped("clock_skew", skew_s=90)
        consumer = broker.consumer("metrics.db-00")
        chaos.publish("metrics.db-00", "db-00", metric_block(100))
        (msg,) = consumer.poll()
        assert first_timestamp(msg) == 190
        assert inj.injected["clock_skew"] == 1

    def test_late_messages_held_then_released(self):
        chaos, broker, inj = self.wrapped("late", hold_messages=3)
        for i in range(3):
            chaos.publish("metrics.db-00", "db-00", metric_block(i))
        # Everything is being held back so far.
        assert broker.size("metrics.db-00") < 3
        released = chaos.flush()
        assert released > 0
        assert broker.size("metrics.db-00") == 3
        assert inj.injected["late"] == 3

    def test_reorder_preserves_the_message_set(self):
        chaos, broker, inj = self.wrapped("reorder", window=4)
        consumer = broker.consumer("metrics.db-00")
        for i in range(12):
            chaos.publish("metrics.db-00", "db-00", metric_block(i))
        chaos.flush()
        values = [first_timestamp(m) for m in consumer.poll()]
        assert sorted(values) == list(range(12))
        assert values != list(range(12))  # the shuffle actually fired
        assert inj.injected["reorder"] >= 1

    def test_flush_is_idempotent(self):
        chaos, _, _ = self.wrapped("late", hold_messages=5)
        chaos.publish("metrics.db-00", "db-00", metric_block(0))
        assert chaos.flush() == 1
        assert chaos.flush() == 0

    def test_row_faults_hit_rows_not_whole_blocks(self):
        chaos, broker, inj = self.wrapped("drop", rate=0.5)
        chaos.publish("metrics.db-00", "db-00", metric_block(0, rows=200))
        (msg,) = broker.read("metrics.db-00", 0, 10)
        kept = set(msg.value.data["timestamp"].tolist())
        assert 0 < len(kept) < 200
        assert kept < set(range(200))
        assert inj.injected["drop"] == 1  # one fault event per block

    def test_late_rows_arrive_in_their_own_block(self):
        chaos, broker, inj = self.wrapped("late", rate=0.5, hold_messages=2)
        chaos.publish("metrics.db-00", "db-00", metric_block(0, rows=200))
        (on_time,) = broker.read("metrics.db-00", 0, 10)
        chaos.flush()
        _, late = broker.read("metrics.db-00", 0, 10)
        on_time_ts = on_time.value.data["timestamp"].tolist()
        late_ts = late.value.data["timestamp"].tolist()
        assert on_time_ts and late_ts
        assert sorted(on_time_ts + late_ts) == list(range(200))
        assert inj.injected["late"] == 1

    def test_corrupt_carves_hit_rows_out(self):
        chaos, broker, inj = self.wrapped("corrupt", rate=0.5)
        chaos.publish("metrics.db-00", "db-00", metric_block(0, rows=200))
        intact, damaged = broker.read("metrics.db-00", 0, 10)
        assert validate_metric_block(intact.value) is None
        assert validate_metric_block(damaged.value) is not None
        assert 0 < len(intact.value) < 200

    def test_rate_zero_passes_everything_through(self):
        chaos, broker, inj = self.wrapped("drop", rate=0.0)
        for i in range(10):
            chaos.publish("metrics.db-00", "db-00", metric_block(i))
        assert broker.size("metrics.db-00") == 10
        assert inj.injected == {}


class TestChaosConsumer:
    def test_backpressure_stalls_polls(self):
        inj = make_injector(
            single_fault_plan("backpressure", rate=1.0, stall_polls=3)
        )
        broker = Broker(registry=MetricsRegistry())
        chaos = inj.wrap_broker(broker)
        consumer = chaos.consumer("query_logs.db-00")
        broker.publish("query_logs.db-00", "db-00", {"sql_id": "q1"})
        for _ in range(5):
            assert consumer.poll() == []
        assert consumer.lag == 1  # nothing consumed while stalled
        assert inj.injected["backpressure"] == 5

    def test_consumer_exposes_the_inner_broker(self):
        # Quarantine publishes via consumer.broker must bypass the chaos.
        inj = make_injector(single_fault_plan("drop", rate=1.0))
        broker = Broker(registry=MetricsRegistry())
        chaos = inj.wrap_broker(broker)
        consumer = chaos.consumer("query_logs.db-00")
        assert consumer.broker is broker

    def test_unfaulted_consumer_delegates(self):
        inj = make_injector(single_fault_plan("drop", rate=0.0))
        broker = Broker(registry=MetricsRegistry())
        chaos = inj.wrap_broker(broker)
        consumer = chaos.consumer("query_logs.db-00")
        broker.publish("query_logs.db-00", "db-00", {"sql_id": "q1"})
        (msg,) = consumer.poll()
        assert msg.value == {"sql_id": "q1"}
        assert consumer.lag == 0


class TestWorkerFaults:
    def test_crashes_bounded_by_max_crashes(self):
        inj = make_injector(
            single_fault_plan("worker_crash", rate=1.0, max_crashes=2)
        )
        hook = inj.fleet_hook()
        crashes = 0
        for _ in range(10):
            try:
                hook("db-00")
            except InjectedWorkerCrash:
                crashes += 1
        assert crashes == 2
        assert inj.injected["worker_crash"] == 2

    def test_hang_stalls_for_hang_steps(self):
        inj = make_injector(
            single_fault_plan("worker_hang", rate=1.0, hang_steps=3)
        )
        hook = inj.fleet_hook()
        for _ in range(4):
            with pytest.raises(InjectedWorkerHang):
                hook("db-00")
        assert inj.injected["worker_hang"] == 4

    def test_instances_crash_independently(self):
        inj = make_injector(
            single_fault_plan("worker_crash", rate=1.0, max_crashes=1)
        )
        hook = inj.fleet_hook()
        with pytest.raises(InjectedWorkerCrash):
            hook("db-00")
        with pytest.raises(InjectedWorkerCrash):
            hook("db-01")
        hook("db-00")  # both exhausted their budget: clean from now on
        hook("db-01")

    def test_should_crash_shard_bounded(self):
        inj = make_injector(
            single_fault_plan("worker_crash", rate=1.0, max_crashes=1)
        )
        assert inj.should_crash_shard("shard-0", attempt=0)
        assert not inj.should_crash_shard("shard-0", attempt=1)

    def test_no_worker_spec_means_no_faults(self):
        inj = make_injector(single_fault_plan("drop", rate=1.0))
        hook = inj.fleet_hook()
        for _ in range(20):
            hook("db-00")
        assert not inj.should_crash_shard("shard-0", attempt=0)
