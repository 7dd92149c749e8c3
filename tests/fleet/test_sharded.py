"""Tests for the process-sharded fleet runner (picklable feeds)."""

import pickle

from repro.fleet import BlockFeed, run_sharded, stable_shard
from tests.fleet.conftest import ANOMALOUS, INSTANCE_IDS


class TestFeeds:
    def test_from_broker_captures_streams(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-a")
        assert feed.instance_id == "db-a"
        assert feed.query_payloads and feed.metric_payloads
        _, block = next(iter(feed.iter_blocks(broker)))
        assert block.instance == "db-a"

    def test_feeds_pickle(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = BlockFeed.from_broker(broker, "db-b")
        clone = pickle.loads(pickle.dumps(feed))
        assert clone.instance_id == "db-b"
        assert clone.query_payloads == feed.query_payloads


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
