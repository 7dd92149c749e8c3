"""Tests for the process-sharded fleet runner (picklable feeds)."""

import pickle

from repro.fleet import (
    InstanceFeed,
    block_feed_from_broker,
    feed_from_broker,
    run_sharded,
    stable_shard,
)
from tests.fleet.conftest import ANOMALOUS, INSTANCE_IDS


class TestFeeds:
    def test_feed_from_broker_captures_streams(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = feed_from_broker(broker, "db-a")
        assert feed.instance_id == "db-a"
        assert feed.query_records and feed.metric_records
        key, record = feed.metric_records[0]
        assert record["instance"] == "db-a"

    def test_feeds_pickle(self, fleet_stream):
        broker, _, _ = fleet_stream
        feed = feed_from_broker(broker, "db-b")
        clone = pickle.loads(pickle.dumps(feed))
        assert clone.instance_id == "db-b"
        assert len(clone.query_records) == len(feed.query_records)


class TestRunShard:
    def test_run_shard_reproduces_fleet_diagnoses(
        self, fleet_stream, record_drain_counts
    ):
        broker, _, _ = fleet_stream
        feeds = [feed_from_broker(broker, i) for i in INSTANCE_IDS]
        counts = run_sharded(feeds, processes=1)
        assert counts == record_drain_counts
        for instance_id in ANOMALOUS:
            assert counts[instance_id] >= 1
        assert counts["db-c"] == 0

    def test_run_sharded_inline_path(self, fleet_stream, record_drain_counts):
        """Any ``processes <= 1`` runs inline; feeds may mix formats."""
        broker, _, _ = fleet_stream
        feeds = [block_feed_from_broker(broker, INSTANCE_IDS[0])] + [
            feed_from_broker(broker, i) for i in INSTANCE_IDS[1:]
        ]
        assert run_sharded(feeds, processes=0) == record_drain_counts

    def test_shard_partition_is_stable(self):
        feeds = [InstanceFeed(instance_id=f"db-{i}") for i in range(8)]
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
