"""Process-sharded fleet runs (multicore scaling past the GIL).

PinSQL analysis is CPU-bound Python that holds the GIL, so the only
way to diagnose instances in parallel is to shard the fleet across
*processes*: the parent partitions instances with the
:func:`~repro.fleet.workers.stable_shard` hash, hands each instance's
collected streams to a process of its own, and merges the diagnosis
counts.

Every run goes through one path: each instance's
:class:`~repro.fleet.workers.BlockFeed` of columnar blocks becomes
one :class:`~repro.fleet.workers.WorkItem`, handed to a
:class:`~repro.fleet.workers.WorkerPool`.  With ``processes <= 1``
the pool executes the items inline, in this process; otherwise it runs
one process per work item, at most ``processes`` at once (see that
module).  Supervision, counters and span merging are the same either
way.

This mirrors production, where diagnosis workers are separate machines
consuming a shared Kafka: the message stream is the interface, never
live Python state.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - chaos wraps fleet, import lazily
    from repro.chaos.plan import FaultPlan

from repro.fleet.engine import ServiceConfig
from repro.fleet.workers import (
    BlockFeed,
    WorkerPool,
    WorkItem,
    stable_shard,
)

__all__ = ["run_sharded"]


def run_sharded(
    feeds: list[BlockFeed],
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
    """
    processes = max(1, processes)
    items = []
    for feed in feeds:
        shard_key = f"shard-{stable_shard(feed.instance_id, processes):02d}"
        items.append(
            WorkItem(
                feed=feed,
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
    pool = WorkerPool(processes=processes, max_restarts=max_restarts)
    return pool.run(items)
