"""Fleet-scale diagnosis: one in-process loop, sharded worker processes.

One PinSQL deployment watches many database instances.  This package
holds the control plane for that: :class:`InstanceDiagnosisEngine` (one
instance's end-to-end loop), :class:`FleetDiagnosisService` (the whole
fleet behind one ``step()``/``run_until_drained()`` on the caller's
thread) and :func:`run_sharded` (the fleet sharded by
:func:`stable_shard` over a :class:`WorkerPool` that runs one process
per work item, at most N at once — the only way to diagnose in
parallel).  An engine stepped by the fleet
service is the only consumer of the broker topics.
"""

from repro.fleet.engine import Diagnosis, InstanceDiagnosisEngine, ServiceConfig
from repro.fleet.service import FleetConfig, FleetDiagnosisService
from repro.fleet.sharded import run_sharded
from repro.fleet.workers import (
    BlockFeed,
    WorkerPool,
    WorkItem,
    execute_work_item,
    stable_shard,
)

__all__ = [
    "BlockFeed",
    "Diagnosis",
    "FleetConfig",
    "FleetDiagnosisService",
    "InstanceDiagnosisEngine",
    "ServiceConfig",
    "WorkItem",
    "WorkerPool",
    "execute_work_item",
    "run_sharded",
    "stable_shard",
]
