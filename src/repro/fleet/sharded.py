"""Process-sharded fleet runs (multicore scaling past the GIL).

The fleet's thread pool keeps one process's instances concurrent, but
PinSQL analysis is CPU-bound Python: threads interleave under the GIL
instead of truly overlapping.  For real multicore scaling the fleet is
sharded across *processes*: the parent partitions instances with the
same :func:`~repro.fleet.scheduler.stable_shard` hash, ships each
worker its instances' collected streams, and merges the per-shard
diagnosis counts.

Every run goes through one path: feeds are encoded into block frames,
one :class:`~repro.fleet.workers.WorkItem` per instance, and handed to
a :class:`~repro.fleet.workers.PersistentWorkerPool`.  With
``processes <= 1`` the pool executes the items inline, in this
process; otherwise long-lived worker processes pull them (see that
module).  Supervision, counters and span merging are the same either
way.

This mirrors production, where diagnosis workers are separate machines
consuming a shared Kafka: the message stream is the interface, never
live Python state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - chaos wraps fleet, import lazily
    from repro.chaos.plan import FaultPlan

from repro.collection.collector import METRIC_TOPIC, QUERY_TOPIC
from repro.collection.stream import Broker, instance_topic
from repro.fleet.engine import ServiceConfig
from repro.fleet.scheduler import stable_shard

__all__ = ["InstanceFeed", "feed_from_broker", "run_sharded"]


@dataclass
class InstanceFeed:
    """One instance's collected streams as picklable ``(key, value)`` records."""

    instance_id: str
    query_records: list[tuple] = field(default_factory=list)
    metric_records: list[tuple] = field(default_factory=list)


def feed_from_broker(broker: Broker, instance_id: str) -> InstanceFeed:
    """Capture an instance's topic partitions as a shippable feed."""
    query = broker.read(instance_topic(QUERY_TOPIC, instance_id), 0, 1 << 31)
    metric = broker.read(instance_topic(METRIC_TOPIC, instance_id), 0, 1 << 31)
    return InstanceFeed(
        instance_id=instance_id,
        query_records=[(m.key, m.value) for m in query],
        metric_records=[(m.key, m.value) for m in metric],
    )


def run_sharded(
    feeds: list[InstanceFeed],
    processes: int,
    config: ServiceConfig | None = None,
    incident_dir: str | None = None,
    fault_plan: "FaultPlan | None" = None,
    max_restarts: int = 2,
) -> dict[str, int]:
    """Partition feeds over worker processes; merge diagnosis counts.

    ``processes <= 1`` runs everything inline (no multiprocessing), so
    callers can use one code path regardless of available cores.

    When ``incident_dir`` is given, every shard records incidents into
    its own subdirectory (``shard-00``, ``shard-01``, …) of that path;
    ``repro incidents health <dir>`` (or
    :func:`repro.incidents.load_health`) merges them afterwards.

    Crashes — chaos-injected via ``fault_plan`` or real — are
    supervised by the pool: each crashed work item is resubmitted with
    a bumped attempt up to ``max_restarts`` times (counted into
    ``fleet_worker_restarts_total``) before being abandoned with zero
    diagnoses.

    ``feeds`` may mix :class:`InstanceFeed` and pre-columnarised
    :class:`~repro.fleet.workers.BlockFeed` entries; either becomes one
    instance-sized :class:`~repro.fleet.workers.WorkItem`.
    """
    from repro.fleet.workers import (
        BlockFeed,
        PersistentWorkerPool,
        WorkItem,
        columnarize_feed,
    )

    processes = max(1, processes)
    items = []
    for feed in feeds:
        shard_key = f"shard-{stable_shard(feed.instance_id, processes):02d}"
        items.append(
            WorkItem(
                feed=feed if isinstance(feed, BlockFeed) else columnarize_feed(feed),
                config=config,
                incident_dir=(
                    str(Path(incident_dir) / shard_key)
                    if incident_dir is not None
                    else None
                ),
                fault_plan=fault_plan,
                shard_key=shard_key,
            )
        )
    pool = PersistentWorkerPool(processes=processes, max_restarts=max_restarts)
    return pool.run(items)
