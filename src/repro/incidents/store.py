"""Append-only, size-bounded incident store (JSONL segments).

Records are appended to numbered segment files
(``incidents-000001.jsonl``) of a :class:`~repro.segmentlog.SegmentLog`,
which owns rollover, whole-segment retention by count and age, and
crash recovery — the same log-structured shape as the collection
LogStore, at DBA-forensics rather than raw-query granularity.

What is specific to incidents lives here: an in-memory index (one light
:class:`IncidentMeta` per record) makes ``list``/``health`` queries
cheap without re-reading segments, an appended id that collides is
re-keyed with the lowest free ``-N`` suffix (N ≥ 2), and the full
record is re-parsed from its segment only on :meth:`IncidentStore.get`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from pathlib import Path

from repro.incidents.record import UNNAMED_INSTANCE, IncidentRecord
from repro.segmentlog import SegmentLog
from repro.telemetry import MetricsRegistry

__all__ = ["IncidentMeta", "IncidentStore"]


@dataclass(frozen=True)
class IncidentMeta:
    """Light index entry: enough for queries and the health rollup."""

    incident_id: str
    instance_id: str
    created_at: int
    anomaly_start: int
    anomaly_end: int
    types: tuple[str, ...]
    verdict: str | None
    rsql_ids: tuple[str, ...]
    top_h_sql: str | None
    repair_outcome: str
    planned_actions: int
    segment: str
    #: Evidence confidence the diagnosis was stamped with ("full"/"degraded").
    confidence: str = "full"
    #: Machine-readable degradation reasons, e.g. ``quarantined_logs:3``.
    degraded_reasons: tuple[str, ...] = ()

    @property
    def quarantined_messages(self) -> int:
        """Messages quarantined before this diagnosis (from the reasons)."""
        total = 0
        for reason in self.degraded_reasons:
            if reason.startswith("quarantined_logs:"):
                try:
                    total += int(reason.rsplit(":", 1)[1])
                except ValueError:
                    continue
        return total

    @property
    def duration(self) -> int:
        return self.anomaly_end - self.anomaly_start

    @property
    def top_r_sql(self) -> str | None:
        return self.rsql_ids[0] if self.rsql_ids else None


def _meta_from_dict(data: dict, segment: str) -> IncidentMeta:
    anomaly = data.get("anomaly", {})
    repair = data.get("repair", {})
    planned = repair.get("planned", ())
    if repair.get("executed"):
        outcome = "executed"
    elif planned:
        outcome = "planned_only"
    else:
        outcome = "no_action"
    return IncidentMeta(
        incident_id=data["incident_id"],
        instance_id=data.get("instance_id") or UNNAMED_INSTANCE,
        created_at=int(data["created_at"]),
        anomaly_start=int(anomaly.get("start", 0)),
        anomaly_end=int(anomaly.get("end", 0)),
        types=tuple(anomaly.get("types", ())),
        verdict=data.get("verdict_category"),
        rsql_ids=tuple(r["sql_id"] for r in data.get("rsql", ())),
        top_h_sql=(data["hsql"][0]["sql_id"] if data.get("hsql") else None),
        repair_outcome=outcome,
        planned_actions=len(planned),
        segment=segment,
        confidence=data.get("confidence", "full"),
        degraded_reasons=tuple(data.get("degraded_reasons", ())),
    )


class IncidentStore:
    """Durable incident records under one directory.

    Parameters
    ----------
    root:
        Store directory (created if missing).  One store per diagnosis
        process — multiprocess shard runners give each shard its own
        directory and :func:`~repro.segmentlog.discover_logs` finds them
        all at read time.
    max_segment_bytes:
        Roll to a new segment once the active one exceeds this size.
    max_records:
        Retention by count: whole cold segments are dropped, oldest
        first, while the total exceeds this (the active segment is
        never dropped).
    max_age_s:
        Retention by age, in stream time: cold segments whose newest
        record is older than ``newest_appended - max_age_s`` are dropped.
        ``None`` disables age-based pruning.
    registry:
        Optional metrics registry; the store exports its occupancy as
        ``incident_store_{records,segments,bytes}`` gauges.
    """

    #: Segment file prefix (``incidents-000001.jsonl``).
    PREFIX = "incidents"

    def __init__(
        self,
        root: str | Path,
        max_segment_bytes: int = 1 << 20,
        max_records: int = 10_000,
        max_age_s: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._log: SegmentLog[IncidentMeta] = SegmentLog(
            root,
            self.PREFIX,
            parse=_meta_from_dict,
            serialise=IncidentRecord.to_dict,
            timestamp=lambda meta: meta.created_at,
            gauge="incident_store",
            max_segment_bytes=max_segment_bytes,
            max_records=max_records,
            max_age_s=max_age_s,
            registry=registry,
        )
        self.root = self._log.root
        #: incident id -> the resident meta carrying it (the last one
        #: read wins if a foreign writer duplicated an id).
        self._index = {meta.incident_id: meta for meta in self._log}
        #: Colliding id -> the suffix its last re-key took; every lower
        #: suffix is still indexed, so the next re-key looks from there.
        #: Emptied whenever retention drops records.
        self._suffixes: dict[str, int] = {}

    def append(self, record: IncidentRecord) -> IncidentRecord:
        """Persist one record; returns it (re-keyed on id collision)."""
        with self._lock:
            base = record.incident_id
            if base in self._index:
                suffix = self._suffixes.get(base, 1) + 1
                while f"{base}-{suffix}" in self._index:
                    suffix += 1
                self._suffixes[base] = suffix
                record = replace(record, incident_id=f"{base}-{suffix}")
            meta = self._log.append(record)
            self._index[meta.incident_id] = meta
            dropped = self._log.retain()
            if dropped:
                self._suffixes.clear()
            for gone in dropped:
                if self._index.get(gone.incident_id) is gone:
                    del self._index[gone.incident_id]
        return record

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
        return len(self._index)

    def __contains__(self, incident_id: str) -> bool:
        return incident_id in self._index

    def metas(self) -> list[IncidentMeta]:
        """Every indexed record, oldest first by (created_at, id)."""
        return sorted(
            self._index.values(), key=lambda m: (m.created_at, m.incident_id)
        )

    def latest(self) -> IncidentMeta | None:
        metas = self.metas()
        return metas[-1] if metas else None

    def query(
        self,
        instance: str | None = None,
        since: int | None = None,
        until: int | None = None,
        verdict: str | None = None,
        template: str | None = None,
        limit: int | None = None,
    ) -> list[IncidentMeta]:
        """Filter the index; newest first.

        ``since``/``until`` bound the anomaly window (inclusive start,
        exclusive end, stream time); ``template`` matches any ranked
        R-SQL id; ``verdict`` matches the typed category.
        """
        out = []
        for meta in reversed(self.metas()):
            if instance is not None and meta.instance_id != instance:
                continue
            if since is not None and meta.anomaly_end <= since:
                continue
            if until is not None and meta.anomaly_start >= until:
                continue
            if verdict is not None and meta.verdict != verdict:
                continue
            if template is not None and template not in meta.rsql_ids:
                continue
            out.append(meta)
            if limit is not None and len(out) >= limit:
                break
        return out

    def get(self, incident_id: str) -> IncidentRecord | None:
        """The full record, re-read from its segment; None if unknown."""
        meta = self._index.get(incident_id)
        if meta is None:
            return None
        for data in self._log.scan(meta.segment):
            if data.get("incident_id") == incident_id:
                return IncidentRecord.from_dict(data)
        return None
