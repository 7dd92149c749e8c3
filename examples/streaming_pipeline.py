"""The data-collection pipeline: collectors → broker → aggregation → detection.

Shows the full Section-IV plumbing on a simulated instance: the query-log
collector ships one columnar block per second into the broker (the Kafka
stand-in), the stream aggregator (the Flink stand-in) materialises per-template
metric series at 1-second and 1-minute granularity, the log store applies
retention, and the two perception layers watch the instance metrics.

Run:  python examples/streaming_pipeline.py
"""

import numpy as np

from repro.collection import (
    Broker,
    LogStore,
    MetricsCollector,
    QueryLogCollector,
    StreamAggregator,
)
from repro.dbsim import DatabaseInstance
from repro.detection import BasicPerception, CaseBuilder, PhenomenonPerception
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)


def main() -> None:
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
    n_query_blocks = QueryLogCollector(broker).collect(result.query_log)
    n_metric_blocks = MetricsCollector(broker).collect(result.metrics)
    print(f"collector shipped {n_query_blocks:,} query-log blocks and "
          f"{n_metric_blocks:,} metric blocks (one per second each)")

    # --- Stream aggregation (Flink stand-in) ---------------------------
    aggregator = StreamAggregator(broker.consumer("query_logs"), start=0, end=duration)
    polled = 0
    while aggregator.consumer.lag > 0:
        polled += aggregator.poll(max_messages=5_000)
    store_1s = aggregator.snapshot()
    store_1m = store_1s.resample(60)
    print(f"aggregated {polled:,} messages into {len(store_1s)} template series "
          f"({store_1s.length} samples @1s, {store_1m.length} @1min)")

    # --- Retention-bounded raw-log store --------------------------------
    logstore = LogStore(retention_s=3 * 24 * 3600)
    stored = logstore.ingest_query_log(result.query_log)
    print(f"log store holds {stored:,} raw query records "
          f"(retention {logstore.retention_s // 3600} h)")

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


if __name__ == "__main__":
    main()
