"""FindingsStore: durability, rollover, recovery, queries."""

import json

from repro.health import FindingsStore, HealthFinding
from repro.segmentlog import discover_logs
from repro.sqlanalysis import Severity


def make_finding(i: int, instance: str = "db-a", check: str = "c") -> HealthFinding:
    return HealthFinding(
        check=check,
        severity=Severity.WARNING,
        message=f"finding {i}",
        instance_id=instance,
        detected_at=i,
        sweep_id=f"sweep-{i // 10}",
    )


class TestPersistence:
    def test_round_trip_on_reopen(self, tmp_path):
        store = FindingsStore(tmp_path)
        originals = [make_finding(i) for i in range(5)]
        assert store.extend(originals) == 5
        reopened = FindingsStore(tmp_path)
        assert reopened.findings() == originals
        assert reopened.record_count == 5

    def test_empty_directory_is_a_valid_store(self, tmp_path):
        # A clean sweep never writes a segment; reading back must not fail.
        FindingsStore(tmp_path)  # creates the dir, no segments
        store = FindingsStore(tmp_path)
        assert store.record_count == 0
        assert store.findings() == []
        assert store.query() == []

    def test_rollover_spreads_segments(self, tmp_path):
        store = FindingsStore(tmp_path, max_segment_bytes=256)
        store.extend(make_finding(i) for i in range(20))
        assert store.segment_count > 1
        assert store.record_count == 20
        # A reopen mid-rollover sees every segment's findings, in order.
        reopened = FindingsStore(tmp_path)
        assert [f.detected_at for f in reopened.findings()] == list(range(20))

    def test_retention_drops_cold_segments(self, tmp_path):
        store = FindingsStore(tmp_path, max_segment_bytes=256, max_records=6)
        store.extend(make_finding(i) for i in range(30))
        assert store.record_count <= 6 + 5  # at most one extra segment
        # The newest findings survive.
        assert store.findings()[-1].detected_at == 29

    def test_truncated_tail_dropped_on_recovery(self, tmp_path):
        store = FindingsStore(tmp_path)
        store.extend(make_finding(i) for i in range(3))
        segment = sorted(tmp_path.glob("health-*.jsonl"))[-1]
        with open(segment, "ab") as f:
            f.write(b'{"check": "partial", "sev')  # killed mid-write
        reopened = FindingsStore(tmp_path)
        assert reopened.record_count == 3
        # The store stays appendable and the file stays line-aligned.
        reopened.append(make_finding(99))
        lines = segment.read_bytes().splitlines()
        assert all(json.loads(line) for line in lines)
        assert FindingsStore(tmp_path).record_count == 4


class TestQuery:
    def test_filters_compose(self, tmp_path):
        store = FindingsStore(tmp_path)
        store.extend([
            make_finding(1, instance="db-a", check="rt"),
            make_finding(2, instance="db-b", check="rt"),
            make_finding(3, instance="db-a", check="lock"),
            HealthFinding(check="fleet-c", severity=Severity.HIGH,
                          message="m", detected_at=4),
        ])
        assert [f.detected_at for f in store.query(instance="db-a")] == [3, 1]
        assert [f.detected_at for f in store.query(check="rt")] == [2, 1]
        assert [f.detected_at for f in store.query(instance="")] == [4]
        assert [
            f.detected_at
            for f in store.query(min_severity=Severity.HIGH)
        ] == [4]
        assert [f.detected_at for f in store.query(since=2, until=4)] == [3, 2]
        assert len(store.query(limit=2)) == 2

    def test_sweep_ids_deduplicated_in_order(self, tmp_path):
        store = FindingsStore(tmp_path)
        store.extend(make_finding(i) for i in range(25))
        assert store.sweep_ids() == ["sweep-0", "sweep-1", "sweep-2"]


class TestDiscovery:
    def test_missing_path_yields_nothing(self, tmp_path):
        assert discover_logs(tmp_path / "nope", FindingsStore.PREFIX) == []

    def test_direct_store_found(self, tmp_path):
        FindingsStore(tmp_path).append(make_finding(0))
        assert discover_logs(tmp_path, FindingsStore.PREFIX) == [tmp_path]

    def test_child_stores_found_sorted(self, tmp_path):
        for name in ("b", "a"):
            FindingsStore(tmp_path / name).append(make_finding(0))
        (tmp_path / "not-a-store").mkdir()
        assert discover_logs(tmp_path, FindingsStore.PREFIX) == [
            tmp_path / "a", tmp_path / "b",
        ]
