"""Fleet-scale diagnosis: sharded scheduling, worker pool.

One PinSQL deployment watches many database instances.  This package
holds the control plane for that: :class:`DiagnosisScheduler` (which
worker owns which instance), :class:`InstanceDiagnosisEngine` (one
instance's end-to-end loop) and :class:`FleetDiagnosisService` (the
whole fleet behind one ``step()``/``run_until_drained()``).  The
single-instance :class:`~repro.service.PinSqlService` is a facade over
the engine.
"""

from repro.fleet.engine import Diagnosis, InstanceDiagnosisEngine, ServiceConfig
from repro.fleet.scheduler import DiagnosisScheduler, stable_shard
from repro.fleet.service import FleetConfig, FleetDiagnosisService
from repro.fleet.sharded import run_sharded
from repro.fleet.workers import (
    BlockFeed,
    PersistentWorkerPool,
    WorkItem,
    execute_work_item,
)

__all__ = [
    "BlockFeed",
    "Diagnosis",
    "DiagnosisScheduler",
    "FleetConfig",
    "FleetDiagnosisService",
    "InstanceDiagnosisEngine",
    "PersistentWorkerPool",
    "ServiceConfig",
    "WorkItem",
    "execute_work_item",
    "run_sharded",
    "stable_shard",
]
