"""The data-collection pipeline: collectors → broker → aggregation → detection.

Shows the full Section-IV plumbing on a simulated instance: the query-log
collector ships one columnar block per second into the instance's broker
partition (the Kafka stand-in), the diagnosis engine drains the blocks
into its retention-bounded log store, the windowed aggregation (the Flink
stand-in) materialises per-template metric series at 1-second and
1-minute granularity from that store, and the two perception layers
watch the instance metrics.

Exits 1 unless the streamed aggregation equals the batch aggregation of
the simulated run's query log.

Run:  python examples/streaming_pipeline.py
"""

import sys

import numpy as np

from repro.collection import (
    TEMPLATE_METRICS,
    Broker,
    MetricsCollector,
    QueryLogCollector,
    aggregate_logstore,
    aggregate_query_log,
)
from repro.dbsim import DatabaseInstance
from repro.detection import BasicPerception, CaseBuilder, PhenomenonPerception
from repro.fleet import InstanceDiagnosisEngine
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)


def main() -> int:
    duration, anomaly_start = 900, 600
    rng = np.random.default_rng(3)
    population = build_population(duration, rng, n_businesses=6)
    inject_anomaly(
        population, rng, AnomalyCategory.POOR_SQL, anomaly_start, duration
    )
    print(f"Simulating {len(population.specs)} templates for {duration} s "
          f"(poor SQL rolled out at t={anomaly_start}) ...")
    instance = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=1)
    result = instance.run(WorkloadGenerator(population), duration=duration)

    # --- Ship logs and metrics through the broker ----------------------
    broker = Broker()
    n_query_blocks = QueryLogCollector(broker, instance_id="db-01").collect(
        result.query_log
    )
    n_metric_blocks = MetricsCollector(broker, instance_id="db-01").collect(
        result.metrics
    )
    print(f"collector shipped {n_query_blocks:,} query-log blocks and "
          f"{n_metric_blocks:,} metric blocks (one per second each)")

    # --- Engine drain into the retention-bounded log store --------------
    engine = InstanceDiagnosisEngine(broker, "db-01")
    engine.step()
    polled, _ = engine.consumer_offsets()
    logstore = engine.logstore
    print(f"engine drained {polled:,} messages; log store holds "
          f"{logstore.total_queries():,} raw query records "
          f"(retention {logstore.retention_s // 3600} h)")

    # --- Windowed aggregation (Flink stand-in) --------------------------
    store_1s = aggregate_logstore(logstore, 0, duration)
    store_1m = store_1s.resample(60)
    print(f"aggregated {len(store_1s)} template series "
          f"({store_1s.length} samples @1s, {store_1m.length} @1min)")
    batch = aggregate_query_log(result.query_log, 0, duration)
    equal = set(store_1s.sql_ids) == set(batch.sql_ids) and all(
        np.array_equal(store_1s.get(sid, m).values, batch.get(sid, m).values)
        for sid in batch.sql_ids
        for m in TEMPLATE_METRICS
    )
    print(f"streamed aggregation equals batch aggregation: {equal}")

    # --- Anomaly detection over the shipped metrics ---------------------
    features = BasicPerception().perceive(result.metrics)
    phenomena = PhenomenonPerception().recognise(features)
    anomalies = CaseBuilder(min_duration_s=30).build(phenomena)
    print(f"\nBasic Perception found {len(features)} anomalous features; "
          f"Phenomenon Perception typed {len(phenomena)} phenomena")
    for anomaly in anomalies:
        print(f"  anomaly [{anomaly.start:>4}, {anomaly.end:>4}) s  types={anomaly.types}")

    # --- Peek at the busiest template's aggregated series ---------------
    busiest = max(store_1m.sql_ids, key=lambda sid: store_1m.executions(sid).total())
    series = store_1m.executions(busiest)
    print(f"\nbusiest template {busiest}: #execution per minute "
          f"min={series.values.min():.0f} max={series.values.max():.0f}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
