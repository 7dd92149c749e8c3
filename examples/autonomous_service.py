"""The always-on diagnosis service: streams in, diagnoses out.

Runs the full DAS-style autonomy loop on a simulated instance: the
collectors publish query logs and metrics to the instance's topic
partitions; the fleet service, with this one instance registered,
consumes both, its real-time detector recognises the anomaly, the case
is assembled from the log store, PinSQL pinpoints the root cause, and
the repairing module plans actions — with a notification callback, as
in the paper's Fig. 5 configuration.

Exits 1 when nothing is diagnosed or the top-1 R-SQL misses the
planted root cause.

Run:  python examples/autonomous_service.py
"""

import sys

import numpy as np

from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.dbsim import DatabaseInstance
from repro.fleet import FleetConfig, FleetDiagnosisService, ServiceConfig
from repro.sqltemplate import TemplateCatalog
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)


def main() -> int:
    duration, onset = 1000, 650
    rng = np.random.default_rng(101)
    population = build_population(duration, rng, n_businesses=6)
    truth = inject_anomaly(
        population, rng, AnomalyCategory.MDL_LOCK, onset, duration
    )
    print(f"simulating a schema-migration anomaly from t={onset} "
          f"(root cause job: {truth.r_sql_ids}) ...")
    instance = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=12)
    result = instance.run(WorkloadGenerator(population), duration=duration)

    # Collectors ship both topics into the instance's partitions.
    broker = Broker()
    QueryLogCollector(broker, instance_id="db-01").collect(result.query_log)
    MetricsCollector(broker, instance_id="db-01").collect(result.metrics)

    # The service, with a DingTalk/SMS-style notification hook.
    notifications = []
    service = FleetDiagnosisService(
        broker,
        FleetConfig(service=ServiceConfig(delta_start_s=600, detector_window_s=1000)),
        notify=lambda d: notifications.append(d),
    )
    catalog = TemplateCatalog()
    for spec in population.specs.values():
        catalog.register_template(spec.sql_id, spec.template, spec.kind, spec.tables)
    service.register_instance("db-01", catalog=catalog)

    diagnoses = service.run_until_drained()
    print(f"\nservice completed: {len(diagnoses)} diagnosis(es), "
          f"{len(notifications)} notification(s)\n")
    correct = bool(diagnoses)
    for diagnosis in diagnoses:
        print(diagnosis.report.text)
        top = diagnosis.result.rsql_ids[0] if diagnosis.result.rsql_ids else None
        verdict = "CORRECT" if top in truth.r_sql_ids else "WRONG"
        correct = correct and verdict == "CORRECT"
        print(f"ground truth check: top-1 R-SQL is {verdict}\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
