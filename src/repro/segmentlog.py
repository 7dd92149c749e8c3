"""Append-only, size-bounded JSONL segment log.

The durable shape under both the incident store and the health findings
store.  Records are appended as compact JSON lines to numbered segment
files (``<prefix>-000001.jsonl``); the active segment rolls over once it
exceeds a byte bound, and retention drops whole cold segments, oldest
first, by record count and optionally by age — never the active one.

Reopening rebuilds the log from disk.  A truncated final line (a writer
killed mid-write) is cut back so appends resume cleanly, a final line
that lost only its newline gets it back, and any other line that does
not parse — not JSON, or JSON the caller's ``parse`` rejects — is
skipped and left in place.  The log is not thread-safe; stores wrap it
in their own lock.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Generic, Iterator, TypeVar

from repro.telemetry import MetricsRegistry, get_logger

__all__ = ["SegmentLog", "discover_logs"]

T = TypeVar("T")


@dataclass
class _Segment(Generic[T]):
    path: Path
    records: list[T] = field(default_factory=list)
    size: int = 0
    #: Largest record timestamp in the segment (age retention).
    newest: int | None = None


class SegmentLog(Generic[T]):
    """Numbered JSONL segments under one single-writer directory.

    ``parse(value, segment_name)`` turns one line's JSON value into the
    resident record (any exception marks the line corrupt),
    ``serialise(item)`` gives the dict :meth:`append` writes, and
    ``timestamp(record)`` its stream time for age retention.  The
    ``prefix`` names the segment files and the logger; occupancy is
    exported as ``<gauge>_{records,segments,bytes}`` when a ``registry``
    is given.  ``max_age_s=None`` disables age retention.
    """

    def __init__(
        self,
        root: str | Path,
        prefix: str,
        parse: Callable[[Any, str], T],
        serialise: Callable[[Any], dict],
        timestamp: Callable[[T], int],
        gauge: str,
        max_segment_bytes: int,
        max_records: int,
        max_age_s: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_segment_bytes <= 0 or max_records <= 0:
            raise ValueError("max_segment_bytes and max_records must be positive")
        if max_age_s is not None and max_age_s <= 0:
            raise ValueError("max_age_s must be positive (or None)")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.max_segment_bytes = int(max_segment_bytes)
        self.max_records = int(max_records)
        self.max_age_s = max_age_s
        self._parse = parse
        self._serialise = serialise
        self._timestamp = timestamp
        self._gauge = gauge
        self._registry = registry
        self._log = get_logger(prefix)
        self._segments: list[_Segment[T]] = []
        #: Timestamp of the last appended record: "now" for age retention.
        self._now: int | None = None
        self._recover()
        self._export_gauges()

    def _recover(self) -> None:
        paths = sorted(self.root.glob(f"{self.prefix}-*.jsonl"))
        for path in paths:
            segment: _Segment[T] = _Segment(path=path)
            raw = path.read_bytes()
            offset = 0
            for line in raw.splitlines(keepends=True):
                try:
                    record = self._parse(json.loads(line), path.name)
                except Exception:
                    if (
                        path == paths[-1]
                        and not line.endswith(b"\n")
                        and offset + len(line) == len(raw)
                    ):
                        # A writer died mid-line: cut the tail back.
                        self._log.warning(
                            "truncated record dropped on recovery",
                            extra={"segment": path.name, "bytes": len(line)},
                        )
                        break
                    self._log.warning(
                        "corrupt record skipped on recovery",
                        extra={"segment": path.name, "offset": offset},
                    )
                    offset += len(line)
                    continue
                offset += len(line)
                self._add(segment, record)
            if offset < len(raw):
                with open(path, "r+b") as f:
                    f.truncate(offset)
            elif raw and not raw.endswith(b"\n"):
                with open(path, "ab") as f:
                    f.write(b"\n")
                offset += 1
            segment.size = offset
            self._segments.append(segment)

    def _add(self, segment: _Segment[T], record: T) -> None:
        segment.records.append(record)
        ts = self._timestamp(record)
        if segment.newest is None or ts > segment.newest:
            segment.newest = ts

    def append(self, item: Any) -> T:
        """Write one item as a line; returns its resident record.

        The item is serialised once: the same dict becomes the line and,
        through ``parse``, the record.  Retention is left to
        :meth:`retain` so a batch pays for it once.
        """
        if not self._segments or self._segments[-1].size >= self.max_segment_bytes:
            number = 1
            if self._segments:
                number = int(self._segments[-1].path.stem.rsplit("-", 1)[1]) + 1
            path = self.root / f"{self.prefix}-{number:06d}.jsonl"
            path.touch()
            self._segments.append(_Segment(path=path))
        segment = self._segments[-1]
        data = self._serialise(item)
        payload = (json.dumps(data, separators=(",", ":")) + "\n").encode("utf-8")
        with open(segment.path, "ab") as f:
            f.write(payload)
        segment.size += len(payload)
        record = self._parse(data, segment.path.name)
        self._add(segment, record)
        self._now = self._timestamp(record)
        return record

    def retain(self) -> list[T]:
        """Drop whole cold segments over the count or age bound.

        Returns the dropped records (so callers can forget them) and
        refreshes the occupancy gauges.
        """
        dropped: list[_Segment[T]] = []
        while (
            len(self._segments) > 1
            and self.record_count - len(self._segments[0].records) >= self.max_records
        ):
            dropped.append(self._segments.pop(0))
        if self.max_age_s is not None and self._now is not None:
            cutoff = self._now - self.max_age_s
            while (
                len(self._segments) > 1
                and self._segments[0].newest is not None
                and self._segments[0].newest < cutoff
            ):
                dropped.append(self._segments.pop(0))
        for segment in dropped:
            try:
                os.remove(segment.path)
            except OSError:
                pass
            self._log.info(
                "segment pruned",
                extra={"segment": segment.path.name, "records": len(segment.records)},
            )
        self._export_gauges()
        return [record for segment in dropped for record in segment.records]

    def _export_gauges(self) -> None:
        if self._registry is None:
            return
        for stem, value, what in (
            ("records", self.record_count, "Records resident in"),
            ("segments", self.segment_count, "JSONL segments in"),
            ("bytes", self.total_bytes, "Bytes held by"),
        ):
            self._registry.gauge(
                f"{self._gauge}_{stem}", help=f"{what} the {self.prefix} store."
            ).set(value)

    @property
    def record_count(self) -> int:
        return sum(len(s.records) for s in self._segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self._segments)

    def __iter__(self) -> Iterator[T]:
        """Every resident record, append order."""
        for segment in self._segments:
            yield from segment.records

    def __reversed__(self) -> Iterator[T]:
        for segment in reversed(self._segments):
            yield from reversed(segment.records)

    def scan(self, segment: str) -> Iterator[dict]:
        """The JSON-object lines of one segment, re-read from disk."""
        try:
            with open(self.root / segment, "rb") as f:
                for line in f:
                    try:
                        data = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(data, dict):
                        yield data
        except OSError:
            return


def discover_logs(path: str | Path, prefix: str) -> list[Path]:
    """Directories under ``path`` holding ``prefix`` segments.

    ``path`` itself when it holds one, otherwise its children that do,
    sorted: sharded runs write one store per ``shard-NN`` directory and
    readers merge them.
    """
    path = Path(path)
    if not path.is_dir():
        return []
    pattern = f"{prefix}-*.jsonl"
    if any(path.glob(pattern)):
        return [path]
    return sorted(
        child for child in path.iterdir()
        if child.is_dir() and any(child.glob(pattern))
    )
