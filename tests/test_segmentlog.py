"""SegmentLog: rollover, retention, crash recovery, gauges, discovery.

The incident store and the findings store both sit on this log, so its
mechanics are tested here once, against a trivial record type.  The
store suites keep what is specific to each store.
"""

from dataclasses import dataclass

import pytest

from repro.health import FindingsStore, HealthFinding
from repro.incidents import IncidentStore
from repro.segmentlog import SegmentLog, discover_logs
from repro.sqlanalysis import Severity
from repro.telemetry import MetricsRegistry
from tests.incidents.conftest import make_record


@dataclass(frozen=True)
class Rec:
    id: int
    t: int
    segment: str = ""


def open_log(root, **bounds):
    bounds.setdefault("max_segment_bytes", 1 << 20)
    bounds.setdefault("max_records", 1000)
    return SegmentLog(
        root,
        "rec",
        parse=lambda data, segment: Rec(data["id"], data["t"], segment),
        serialise=lambda rec: {"id": rec.id, "t": rec.t},
        timestamp=lambda rec: rec.t,
        gauge="rec_store",
        **bounds,
    )


def fill(log, ids, spacing=10):
    out = [log.append(Rec(i, i * spacing)) for i in ids]
    log.retain()
    return out


def segment_files(root):
    return sorted(p.name for p in root.glob("rec-*.jsonl"))


class TestRollover:
    def test_segments_are_numbered_from_one(self, tmp_path):
        log = open_log(tmp_path, max_segment_bytes=20)
        fill(log, range(6))
        assert log.segment_count == 3
        assert segment_files(tmp_path)[0] == "rec-000001.jsonl"
        assert len(segment_files(tmp_path)) == log.segment_count
        assert [r.id for r in log] == list(range(6))
        assert [r.id for r in reversed(log)] == list(reversed(range(6)))

    def test_append_returns_the_parsed_record_with_its_segment(self, tmp_path):
        log = open_log(tmp_path)
        rec = log.append(Rec(7, 70))
        assert rec == Rec(7, 70, "rec-000001.jsonl")

    def test_lines_are_compact_json(self, tmp_path):
        log = open_log(tmp_path)
        fill(log, range(2))
        assert (tmp_path / "rec-000001.jsonl").read_bytes() == (
            b'{"id":0,"t":0}\n{"id":1,"t":10}\n'
        )
        assert log.total_bytes == (tmp_path / "rec-000001.jsonl").stat().st_size


class TestRecovery:
    def test_reopen_restores_records_and_continues_numbering(self, tmp_path):
        log = open_log(tmp_path, max_segment_bytes=40, max_records=3)
        fill(log, range(8))
        assert "rec-000001.jsonl" not in segment_files(tmp_path)  # pruned
        last = segment_files(tmp_path)[-1]
        reopened = open_log(tmp_path, max_segment_bytes=40, max_records=3)
        assert list(reopened) == list(log)
        assert reopened.total_bytes == log.total_bytes
        fill(reopened, [8, 9, 10])
        # Numbering continues from the newest file, not the file count.
        assert segment_files(tmp_path)[-1] > last

    def test_truncated_tail_is_cut_back(self, tmp_path):
        fill(open_log(tmp_path), range(3))
        segment = tmp_path / "rec-000001.jsonl"
        raw = segment.read_bytes()
        segment.write_bytes(raw + b'{"id": 3, "t')  # killed mid-write
        reopened = open_log(tmp_path)
        assert reopened.record_count == 3
        assert segment.read_bytes() == raw
        fill(reopened, [4])
        assert [r.id for r in open_log(tmp_path)] == [0, 1, 2, 4]

    def test_missing_final_newline_is_repaired(self, tmp_path):
        fill(open_log(tmp_path), range(2))
        segment = tmp_path / "rec-000001.jsonl"
        segment.write_bytes(segment.read_bytes().rstrip(b"\n"))
        reopened = open_log(tmp_path)
        assert reopened.record_count == 2
        assert segment.read_bytes().endswith(b"\n")
        fill(reopened, [2])
        assert [r.id for r in open_log(tmp_path)] == [0, 1, 2]

    def test_corrupt_mid_file_line_is_skipped_and_kept(self, tmp_path):
        fill(open_log(tmp_path), range(3))
        segment = tmp_path / "rec-000001.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"NOT JSON AT ALL\n"
        segment.write_bytes(b"".join(lines))
        reopened = open_log(tmp_path)
        assert [r.id for r in reopened] == [0, 2]
        assert reopened.total_bytes == segment.stat().st_size
        assert b"NOT JSON AT ALL\n" in segment.read_bytes()

    def test_parse_errors_mark_a_line_corrupt(self, tmp_path):
        fill(open_log(tmp_path), range(2))
        segment = tmp_path / "rec-000001.jsonl"
        raw = segment.read_bytes()
        # Valid JSON the parse function rejects: skipped mid-file, cut
        # back as the final, unterminated line.
        segment.write_bytes(b'{"id": "no t"}\n' + raw + b"[1]")
        reopened = open_log(tmp_path)
        assert [r.id for r in reopened] == [0, 1]
        assert segment.read_bytes() == b'{"id": "no t"}\n' + raw

    def test_scan_yields_object_lines_only(self, tmp_path):
        fill(open_log(tmp_path), range(2))
        segment = tmp_path / "rec-000001.jsonl"
        segment.write_bytes(b"[1]\nnull\n" + segment.read_bytes() + b"oops\n")
        log = open_log(tmp_path)
        assert list(log.scan("rec-000001.jsonl")) == [
            {"id": 0, "t": 0}, {"id": 1, "t": 10},
        ]
        assert list(log.scan("rec-999999.jsonl")) == []


class TestRetention:
    def test_count_retention_drops_whole_cold_segments(self, tmp_path):
        log = open_log(tmp_path, max_segment_bytes=40, max_records=4)
        written = [log.append(Rec(i, i)) for i in range(12)]
        dropped = log.retain()
        kept = list(log)
        assert dropped + kept == written  # oldest first, nothing lost twice
        assert kept[-1].id == 11
        assert {r.segment for r in dropped}.isdisjoint(segment_files(tmp_path))
        assert len(segment_files(tmp_path)) == log.segment_count
        # Dropping the oldest remaining segment would go below the bound.
        first = [r for r in kept if r.segment == kept[0].segment]
        assert log.record_count - len(first) < 4

    def test_age_retention_drops_segments_older_than_the_newest_append(
        self, tmp_path
    ):
        log = open_log(tmp_path, max_segment_bytes=40, max_age_s=30)
        fill(log, range(12), spacing=10)  # t = 0 .. 110, 3 per segment
        newest: dict[str, int] = {}
        for rec in log:
            newest[rec.segment] = max(rec.t, newest.get(rec.segment, 0))
        # Cold segments go wholesale once their newest record is past
        # the cutoff; a survivor may hold older records beside newer ones.
        assert min(newest.values()) >= 110 - 30
        assert [r.id for r in log] == [6, 7, 8, 9, 10, 11]

    def test_no_age_bound_keeps_old_segments(self, tmp_path):
        log = open_log(tmp_path, max_segment_bytes=40)
        fill(log, range(12), spacing=10_000)
        assert log.record_count == 12

    def test_active_segment_is_never_dropped(self, tmp_path):
        log = open_log(tmp_path, max_segment_bytes=1, max_records=1, max_age_s=1)
        fill(log, range(3), spacing=1000)
        assert segment_files(tmp_path) == ["rec-000003.jsonl"]
        assert [r.id for r in log] == [2]

    def test_bad_bounds_rejected(self, tmp_path):
        for bounds in (
            {"max_segment_bytes": 0},
            {"max_records": 0},
            {"max_age_s": 0},
        ):
            with pytest.raises(ValueError):
                open_log(tmp_path, **bounds)


class TestGauges:
    def test_occupancy_gauges_track_appends_and_pruning(self, tmp_path):
        reg = MetricsRegistry()
        log = open_log(tmp_path, max_segment_bytes=40, max_records=2, registry=reg)
        assert reg.get("rec_store_records").value == 0
        fill(log, range(6))
        assert reg.get("rec_store_records").value == log.record_count < 6
        assert reg.get("rec_store_segments").value == log.segment_count
        assert reg.get("rec_store_bytes").value == log.total_bytes

    def test_reopen_exports_recovered_occupancy(self, tmp_path):
        fill(open_log(tmp_path), range(3))
        reg = MetricsRegistry()
        open_log(tmp_path, registry=reg)
        assert reg.get("rec_store_records").value == 3


class TestDiscovery:
    def test_log_directory_is_itself(self, tmp_path):
        fill(open_log(tmp_path), [0])
        assert discover_logs(tmp_path, "rec") == [tmp_path]

    def test_children_found_sorted_by_prefix(self, tmp_path):
        for name in ("shard-01", "shard-00"):
            fill(open_log(tmp_path / name), [0])
        (tmp_path / "empty").mkdir()
        FindingsStore(tmp_path / "other").append(
            HealthFinding(check="c", severity=Severity.INFO, message="m")
        )
        assert discover_logs(tmp_path, "rec") == [
            tmp_path / "shard-00", tmp_path / "shard-01",
        ]
        assert discover_logs(tmp_path, FindingsStore.PREFIX) == [tmp_path / "other"]

    def test_missing_or_empty_path_yields_nothing(self, tmp_path):
        assert discover_logs(tmp_path / "absent", "rec") == []
        assert discover_logs(tmp_path, "rec") == []


# ----------------------------------------------------------------------
# Both stores, on lines that are valid JSON but not records.
# ----------------------------------------------------------------------
def _incident(i):
    return make_record(incident_id=f"inc-{i}", start=100 + i, end=150 + i)


def _finding(i):
    return HealthFinding(
        check="c", severity=Severity.WARNING, message=f"f{i}", detected_at=i
    )


STORES = {
    "incidents": (IncidentStore, _incident),
    "health": (FindingsStore, _finding),
}


@pytest.mark.parametrize("kind", sorted(STORES))
@pytest.mark.parametrize("line", [b"{}", b"[1]", b"null", b'"x"'])
def test_store_reopens_past_valid_json_that_is_not_a_record(tmp_path, kind, line):
    store_cls, make = STORES[kind]
    store = store_cls(tmp_path)
    store.append(make(0))
    store.append(make(1))
    segment = tmp_path / f"{store_cls.PREFIX}-000001.jsonl"
    first, second = segment.read_bytes().splitlines(keepends=True)
    # Skipped mid-file; cut back as the unterminated tail.
    segment.write_bytes(first + line + b"\n" + second + line)
    reopened = store_cls(tmp_path)
    assert reopened.record_count == 2
    assert segment.read_bytes() == first + line + b"\n" + second
    if isinstance(reopened, IncidentStore):
        assert reopened.get("inc-0") == store.get("inc-0")
        assert reopened.get("inc-1") is not None
    reopened.append(make(2))
    assert store_cls(tmp_path).record_count == 3
