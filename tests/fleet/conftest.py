"""Shared fleet-test fixture: one simulated 3-instance stream.

Simulation is the expensive part (three full workload runs), so the
runs and their per-second block broker are built once per test
session; tests that mutate broker state (pruning, draining) replay it
onto a private broker first.
"""

import numpy as np
import pytest

from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.dbsim import DatabaseInstance
from repro.dbsim.monitor import InstanceMetrics
from repro.dbsim.query import QueryLog, SecondBatch
from repro.fleet import BlockFeed, FleetDiagnosisService
from repro.timeseries import TimeSeries
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)

DURATION, ONSET = 600, 400
INSTANCE_IDS = ("db-a", "db-b", "db-c")
ANOMALOUS = ("db-a", "db-b")


@pytest.fixture(scope="session")
def fleet_runs():
    """Simulation runs + populations + truths for a 3-instance fleet."""
    runs, populations, truths = {}, {}, {}
    for i, instance_id in enumerate(INSTANCE_IDS):
        rng = np.random.default_rng(60 + i)
        population = build_population(DURATION, rng, n_businesses=4)
        truth = None
        if instance_id in ANOMALOUS:
            truth = inject_anomaly(
                population, rng, AnomalyCategory.ROW_LOCK, ONSET, DURATION,
                target_rate=(25.0, 35.0), lock_hold_ms=(300.0, 400.0),
            )
        db = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=9 + i)
        runs[instance_id] = db.run(WorkloadGenerator(population), duration=DURATION)
        populations[instance_id] = population
        truths[instance_id] = truth
    return runs, populations, truths


def collected(runs, grain="collect"):
    """A broker holding ``runs`` as shipped by the collectors' ``grain``
    method: ``collect`` (per-second blocks) or ``collect_blocks``."""
    broker = Broker()
    for instance_id, run in runs.items():
        getattr(QueryLogCollector(broker, instance_id=instance_id), grain)(run.query_log)
        getattr(MetricsCollector(broker, instance_id=instance_id), grain)(run.metrics)
    return broker


@pytest.fixture(scope="session")
def fleet_stream(fleet_runs):
    """Per-second block broker + populations + truths for the fleet."""
    runs, populations, truths = fleet_runs
    return collected(runs), populations, truths


def replay(broker, instance_ids):
    """A private broker holding a copy of the instances' blocks."""
    clone = Broker()
    for instance_id in instance_ids:
        for topic, block in BlockFeed.from_broker(broker, instance_id).iter_blocks():
            clone.publish_block(topic, block)
    return clone


def service_drain(broker, instance_ids):
    """Diagnoses per instance from one in-process fleet service drain.

    The reference the ``run_sharded`` and work-item paths must match:
    the instances' blocks are replayed onto a fresh broker and drained
    by one in-process fleet service.
    """
    service = FleetDiagnosisService(replay(broker, instance_ids))
    for instance_id in instance_ids:
        service.register_instance(instance_id)
    service.run_until_drained()
    return {i: len(service.diagnoses_for(i)) for i in instance_ids}


@pytest.fixture(scope="session")
def drain_counts(fleet_stream):
    """``service_drain`` over the whole fixture fleet (computed once)."""
    return service_drain(fleet_stream[0], INSTANCE_IDS)


def tiny_feed(instance_id="db-t"):
    """A minimal but valid feed: enough to drain a service quickly."""
    log = QueryLog()
    for s in range(20):
        log.append(
            SecondBatch(
                "q1",
                np.array([s * 1000 + 10], dtype=np.int64),
                np.array([5.0]),
                np.array([40.0]),
            )
        )
    metrics = InstanceMetrics({"cpu": TimeSeries(np.full(20, 0.2), start=0, name="cpu")})
    broker = Broker()
    QueryLogCollector(broker, instance_id=instance_id).collect(log)
    MetricsCollector(broker, instance_id=instance_id).collect(metrics)
    return BlockFeed.from_broker(broker, instance_id)
