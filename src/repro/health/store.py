"""Append-only, size-bounded findings store (JSONL segments).

The proactive twin of :class:`~repro.incidents.IncidentStore`, on the
same :class:`~repro.segmentlog.SegmentLog`: health findings are
appended to numbered segment files (``health-000001.jsonl``) with the
same rollover, count retention and crash recovery.  Unlike incident
records, findings are small enough to keep fully in memory, so the log
holds the complete finding rather than a light meta — the daily report
and lead-time harness read everything anyway.  A resident finding is
the one its line parses back to, so a reopened store reads exactly what
the writer held.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterable

from repro.health.finding import HealthFinding
from repro.segmentlog import SegmentLog
from repro.sqlanalysis import Severity
from repro.telemetry import MetricsRegistry

__all__ = ["FindingsStore"]


class FindingsStore:
    """Durable health findings under one directory.

    Parameters
    ----------
    root:
        Store directory (created if missing).
    max_segment_bytes:
        Roll to a new segment once the active one exceeds this size.
    max_records:
        Retention by count: whole cold segments are dropped, oldest
        first, while the total exceeds this (never the active segment).
    registry:
        Optional metrics registry; occupancy is exported as
        ``health_store_{records,segments,bytes}`` gauges.
    """

    #: Segment file prefix (``health-000001.jsonl``).
    PREFIX = "health"

    def __init__(
        self,
        root: str | Path,
        max_segment_bytes: int = 1 << 20,
        max_records: int = 50_000,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._log: SegmentLog[HealthFinding] = SegmentLog(
            root,
            self.PREFIX,
            parse=lambda data, segment: HealthFinding.from_dict(data),
            serialise=HealthFinding.to_dict,
            timestamp=lambda finding: finding.detected_at,
            gauge="health_store",
            max_segment_bytes=max_segment_bytes,
            max_records=max_records,
            registry=registry,
        )
        self.root = self._log.root

    def append(self, finding: HealthFinding) -> None:
        """Persist one finding."""
        self.extend([finding])

    def extend(self, findings: Iterable[HealthFinding]) -> int:
        """Persist a batch (one sweep's findings); returns the count."""
        count = 0
        with self._lock:
            for finding in findings:
                self._log.append(finding)
                count += 1
            self._log.retain()
        return count

    @property
    def record_count(self) -> int:
        return self._log.record_count

    @property
    def segment_count(self) -> int:
        return self._log.segment_count

    @property
    def total_bytes(self) -> int:
        return self._log.total_bytes

    def __len__(self) -> int:
        return self._log.record_count

    def findings(self) -> list[HealthFinding]:
        """Every resident finding, append (time) order."""
        return list(self._log)

    def sweep_ids(self) -> list[str]:
        """Distinct sweep ids, oldest first."""
        seen: dict[str, None] = {}
        for finding in self._log:
            if finding.sweep_id and finding.sweep_id not in seen:
                seen[finding.sweep_id] = None
        return list(seen)

    def query(
        self,
        instance: str | None = None,
        check: str | None = None,
        min_severity: Severity = Severity.INFO,
        since: int | None = None,
        until: int | None = None,
        limit: int | None = None,
    ) -> list[HealthFinding]:
        """Filter findings; newest first.

        ``since``/``until`` bound ``detected_at`` (inclusive /
        exclusive, stream time); ``instance`` matches exactly (use
        ``""`` for fleet-scope findings).
        """
        out: list[HealthFinding] = []
        for finding in reversed(self._log):
            if instance is not None and finding.instance_id != instance:
                continue
            if check is not None and finding.check != check:
                continue
            if finding.severity < min_severity:
                continue
            if since is not None and finding.detected_at < since:
                continue
            if until is not None and finding.detected_at >= until:
                continue
            out.append(finding)
            if limit is not None and len(out) >= limit:
                break
        return out
