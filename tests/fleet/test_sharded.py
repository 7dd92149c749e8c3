"""Tests for the process-sharded fleet runner (picklable feeds)."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import single_fault_plan
from repro.evaluation.chaos import ChaosHarnessConfig, FleetFixture, run_fault_class
from repro.fleet import BlockFeed, WorkItem, run_sharded, stable_shard
from tests.fleet.conftest import ANOMALOUS, DURATION, INSTANCE_IDS, ONSET


class TestFeeds:
    def test_from_broker_captures_streams(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        assert feed.instance_id == "db-a"
        assert feed.query_blocks and feed.metric_blocks
        _, block = next(iter(feed.iter_blocks()))
        assert block.instance == "db-a"

    def test_feeds_pickle(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-b")
        clone = pickle.loads(pickle.dumps(feed))
        assert clone.instance_id == "db-b"
        assert clone.n_blocks == feed.n_blocks
        assert clone.nbytes == feed.nbytes

    def test_iter_blocks_yields_the_captured_blocks(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        yielded = list(feed.iter_blocks())
        # As captured: no copy, no re-encoding, publish order.
        assert all(
            a is b
            for (_, a), b in zip(
                yielded, [*feed.query_blocks, *feed.metric_blocks], strict=True
            )
        )
        n_query = len(feed.query_blocks)
        assert {topic for topic, _ in yielded[:n_query]} == {"query_logs.db-a"}
        assert {topic for topic, _ in yielded[n_query:]} == {"performance_metrics.db-a"}

    def test_nbytes_sums_block_row_bytes(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        published = sum(
            message.value.data.nbytes
            for topic in ("query_logs.db-a", "performance_metrics.db-a")
            for message in broker.read(topic, 0, 1 << 31)
        )
        assert feed.nbytes == published > 0

    def test_unstamped_clears_every_envelope_and_keeps_rows(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        assert feed.trace is not None
        bare = feed.unstamped()
        assert bare.trace is None and bare.instance_id == feed.instance_id
        pairs = list(zip(feed.iter_blocks(), bare.iter_blocks(), strict=True))
        for (topic, block), (bare_topic, copy) in pairs:
            assert bare_topic == topic
            assert (copy.trace, copy.created_unix) == (None, 0.0)
            assert copy.data is block.data
        # The captured feed keeps its own envelopes.
        assert all(b.trace is not None for _, b in feed.iter_blocks())

    def test_captured_blocks_are_read_only(self, fleet_stream):
        # A replay must not be able to change a cached feed in place.
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        for block in (feed.query_blocks[0], feed.metric_blocks[0]):
            with pytest.raises(ValueError):
                block.data[0] = block.data[-1]
        # The capture is a view: the broker's own block stays writeable.
        first = broker.read("query_logs.db-a", 0, 1)[0].value
        assert first.data.flags.writeable

    def test_work_item_pickle_keeps_every_block_field(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        feed.statements = ["SELECT 1"]
        first = feed.query_blocks[0]
        feed.query_blocks[0] = replace(
            first, statements=tuple(f"SELECT {i}" for i in range(first.n_templates))
        )
        clone = pickle.loads(pickle.dumps(WorkItem(feed=feed))).feed
        assert clone.trace == feed.trace and clone.statements == feed.statements
        pairs = list(zip(feed.iter_blocks(), clone.iter_blocks(), strict=True))
        assert len(pairs) == feed.n_blocks
        for (topic, block), (clone_topic, copy) in pairs:
            assert clone_topic == topic
            assert type(copy) is type(block)
            np.testing.assert_array_equal(copy.data, block.data)
            assert copy.data.dtype == block.data.dtype
            assert copy.instance == block.instance
            assert block.trace is not None and copy.trace == block.trace
            assert block.created_unix > 0 and copy.created_unix == block.created_unix
            if hasattr(block, "sql_ids"):
                assert copy.sql_ids == block.sql_ids
                assert copy.statements == block.statements
            else:
                assert copy.metrics == block.metrics

    def test_replayed_fixture_is_unchanged_by_a_fault_run(self, fleet_stream):
        """A ``corrupt`` run leaves the fixture as it was: the ``clean``
        run after it diagnoses exactly like one on a fresh fixture."""
        broker, _, _ = fleet_stream
        cfg = ChaosHarnessConfig(n_instances=1, anomalous=1, duration_s=DURATION)

        def fixture():
            feed = BlockFeed.from_broker(broker, ANOMALOUS[0]).unstamped()
            return FleetFixture(
                feeds=[feed], truths={}, exemplars={feed.instance_id: ()},
                onset=ONSET, duration_s=DURATION,
            )

        def clean(fixture):
            diagnoses = []
            report = run_fault_class(fixture, cfg, "clean", None, diagnoses_out=diagnoses)
            assert report.completed and report.quarantined == 0 and diagnoses
            return [
                (d.anomaly.start, d.anomaly.end, d.result.hsql_ids, d.result.rsql_ids)
                for d in diagnoses
            ]

        replayed = fixture()
        corrupt = run_fault_class(
            replayed, cfg, "corrupt", single_fault_plan("corrupt", seed=cfg.seed)
        )
        assert corrupt.completed and corrupt.faults_injected > 0
        assert clean(replayed) == clean(fixture())


class TestRunShard:
    def test_run_shard_reproduces_fleet_diagnoses(self, fleet_stream, drain_counts):
        broker, _, _ = fleet_stream
        feeds = [BlockFeed.from_broker(broker, i) for i in INSTANCE_IDS]
        counts = run_sharded(feeds, processes=1)
        assert counts == drain_counts
        for instance_id in ANOMALOUS:
            assert counts[instance_id] >= 1
        assert counts["db-c"] == 0

    def test_run_sharded_inline_path(self, fleet_stream, drain_counts):
        """Any ``processes <= 1`` runs inline."""
        broker, _, _ = fleet_stream
        feeds = [BlockFeed.from_broker(broker, i) for i in INSTANCE_IDS]
        assert run_sharded(feeds, processes=0) == drain_counts

    def test_shard_partition_is_stable(self):
        feeds = [BlockFeed(instance_id=f"db-{i}") for i in range(8)]
        by_shard = {}
        for feed in feeds:
            by_shard.setdefault(stable_shard(feed.instance_id, 3), []).append(
                feed.instance_id
            )
        again = {}
        for feed in feeds:
            again.setdefault(stable_shard(feed.instance_id, 3), []).append(
                feed.instance_id
            )
        assert by_shard == again
