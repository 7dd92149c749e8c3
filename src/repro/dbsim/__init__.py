"""Cloud database instance simulator.

PinSQL's inputs are *query logs* (per-query start time, response time,
examined rows, template id) and *performance metrics* (active session,
CPU usage, IOPS usage, row-lock counters).  This package simulates a
cloud MySQL-like instance at per-second, per-template granularity with
the causal couplings the paper's diagnosis relies on:

* CPU saturation slows every query (processor sharing with backlog);
* a DDL statement holds an exclusive metadata lock that blocks all new
  queries on its table, piling up sessions;
* row locks held by write-heavy templates delay co-table queries;
* the monitor samples the true instantaneous active session at an
  unknown instant within each second, exactly the ``SHOW STATUS``
  uncertainty the bucketized estimator (paper Section IV-C) resolves.
"""

from repro.dbsim.spec import TemplateSpec
from repro.dbsim.tables import Table, Schema
from repro.dbsim.resources import ResourceModel, ResourceUsage
from repro.dbsim.locks import LockManager, MdlLockWindow
from repro.dbsim.query import QueryLog, SecondBatch
from repro.dbsim.monitor import Monitor, InstanceMetrics
from repro.dbsim.engine import Arrivals, SimulationEngine, RateProvider, Throttle
from repro.dbsim.instance import DatabaseInstance, SimulationResult
from repro.dbsim.perfschema import (
    PerformanceSchemaConfig,
    StressWorkloadKind,
    run_stress_test,
    StressResult,
)

__all__ = [
    "TemplateSpec",
    "Table",
    "Schema",
    "ResourceModel",
    "ResourceUsage",
    "LockManager",
    "MdlLockWindow",
    "QueryLog",
    "SecondBatch",
    "Monitor",
    "InstanceMetrics",
    "SimulationEngine",
    "Arrivals",
    "RateProvider",
    "Throttle",
    "DatabaseInstance",
    "SimulationResult",
    "PerformanceSchemaConfig",
    "StressWorkloadKind",
    "run_stress_test",
    "StressResult",
]
