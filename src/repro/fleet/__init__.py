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
from repro.fleet.sharded import (
    InstanceFeed,
    feed_from_broker,
    publish_feed,
    run_sharded,
)
from repro.fleet.workers import (
    BlockFeed,
    PersistentWorkerPool,
    WorkItem,
    block_feed_from_broker,
    columnarize_feed,
    execute_work_item,
)

__all__ = [
    "BlockFeed",
    "Diagnosis",
    "DiagnosisScheduler",
    "FleetConfig",
    "FleetDiagnosisService",
    "InstanceDiagnosisEngine",
    "InstanceFeed",
    "PersistentWorkerPool",
    "ServiceConfig",
    "WorkItem",
    "block_feed_from_broker",
    "columnarize_feed",
    "execute_work_item",
    "feed_from_broker",
    "publish_feed",
    "run_sharded",
    "stable_shard",
]
