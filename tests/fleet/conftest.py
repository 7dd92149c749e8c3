"""Shared fleet-test fixture: one simulated 3-instance stream.

Simulation is the expensive part (three full workload runs), so the
broker is built once per test session; tests that mutate broker state
(pruning) replay it onto a private broker first.
"""

import numpy as np
import pytest

from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.dbsim import DatabaseInstance
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
def fleet_stream():
    """Broker + populations + truths for a 3-instance fleet."""
    broker = Broker()
    populations, truths = {}, {}
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
        run = db.run(WorkloadGenerator(population), duration=DURATION)
        QueryLogCollector(broker, instance_id=instance_id).collect(run.query_log)
        MetricsCollector(broker, instance_id=instance_id).collect(run.metrics)
        populations[instance_id] = population
        truths[instance_id] = truth
    return broker, populations, truths


def per_record_drain(broker, instance_ids):
    """Diagnoses per instance from a per-record ``Broker.publish`` replay.

    The reference the block-fed ``run_sharded`` paths must match: the
    instances' streams are published record by record onto a fresh
    broker and drained by one single-threaded fleet service.
    """
    from repro.fleet import (
        FleetConfig,
        FleetDiagnosisService,
        feed_from_broker,
        publish_feed,
    )

    replay = Broker()
    service = FleetDiagnosisService(replay, FleetConfig(workers=1))
    for instance_id in instance_ids:
        service.register_instance(instance_id)
        publish_feed(replay, feed_from_broker(broker, instance_id))
    service.run_until_drained()
    service.close()
    return {i: len(service.diagnoses_for(i)) for i in instance_ids}


@pytest.fixture(scope="session")
def record_drain_counts(fleet_stream):
    """``per_record_drain`` over the whole fixture fleet (computed once)."""
    return per_record_drain(fleet_stream[0], INSTANCE_IDS)
