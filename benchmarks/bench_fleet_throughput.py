"""Fleet diagnosis throughput: threads against processes.

Two questions, one gated target:

1. How does the thread-pooled fleet service scale as workers grow?
   (Under the GIL: it mostly doesn't — the table documents that.)
2. Does the persistent-process pool (:mod:`repro.fleet.workers`)
   actually beat threads?  Asserted (≥1.5× over the 2-thread drain at
   2 worker processes) only when the machine has cores to scale onto.

Results are written both as a human table
(``results/fleet_throughput.txt``) and machine-readable JSON
(``results/fleet_throughput.json``) for CI artifact upload and
regression diffing.  ``FLEET_BENCH_INSTANCES`` / ``FLEET_BENCH_DURATION``
shrink the corpus for smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.dbsim import DatabaseInstance
from repro.fleet import (
    BlockFeed,
    FleetConfig,
    FleetDiagnosisService,
    ServiceConfig,
    run_sharded,
)
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)

from benchmarks.conftest import _cached, write_json, write_report

N_INSTANCES = int(os.environ.get("FLEET_BENCH_INSTANCES", "8"))
DURATION = int(os.environ.get("FLEET_BENCH_DURATION", "600"))
ONSET = int(DURATION * 2 / 3)
SERVICE_CONFIG = ServiceConfig(delta_start_s=300, detector_window_s=DURATION)


def _simulate_feeds():
    """Simulate the fleet once; returns picklable per-instance feeds of
    per-second blocks (the layer-overhead bench replays them by chunk)."""
    broker = Broker()
    feeds = []
    for i in range(N_INSTANCES):
        instance_id = f"db-{i:02d}"
        rng = np.random.default_rng(9000 + i)
        population = build_population(DURATION, rng, n_businesses=5)
        if i % 2 == 0:
            inject_anomaly(
                population, rng, AnomalyCategory.ROW_LOCK, ONSET, DURATION,
                target_rate=(25.0, 35.0), lock_hold_ms=(300.0, 400.0),
            )
        db = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=77 + i)
        run = db.run(WorkloadGenerator(population), duration=DURATION)
        QueryLogCollector(broker, instance_id=instance_id).collect(run.query_log)
        MetricsCollector(broker, instance_id=instance_id).collect(run.metrics)
        feeds.append(BlockFeed.from_broker(broker, instance_id).unstamped())
    return feeds


def _drain_with_threads(feeds, workers: int) -> tuple[float, int]:
    """Publish the feeds to a fresh broker and drain; (seconds, diagnoses)."""
    broker = Broker()
    for feed in feeds:
        for topic, block in feed.iter_blocks(broker):
            broker.publish_block(topic, block)
    service = FleetDiagnosisService(
        broker,
        FleetConfig(service=SERVICE_CONFIG, workers=workers, prune_broker=True),
    )
    for feed in feeds:
        service.register_instance(feed.instance_id)
    t0 = time.perf_counter()
    diagnoses = service.run_until_drained()
    elapsed = time.perf_counter() - t0
    service.close()
    return elapsed, len(diagnoses)


def test_fleet_throughput():
    feeds = _cached(f"fleet_feeds_v3_{N_INSTANCES}x{DURATION}", _simulate_feeds)
    cores = os.cpu_count() or 1
    payload: dict = {
        "env": {"cores": cores, "n_instances": N_INSTANCES, "duration_s": DURATION},
    }

    lines = [
        "Fleet diagnosis throughput "
        f"({N_INSTANCES}-instance workload, {DURATION}s simulated, "
        f"{cores} cores available)",
        "",
    ]

    # -- thread pool vs persistent process pool ------------------------
    lines.append(
        f"{'mode':<10} {'fleet':>5} {'workers':>7} {'seconds':>8} "
        f"{'diagnoses':>9} {'diag/s':>7} {'inst/s':>7}"
    )
    results: dict[tuple[str, int], float] = {}
    payload["threads"] = []
    for workers in (1, 2, 4):
        elapsed, n_diag = _drain_with_threads(feeds, workers)
        results[("threads", workers)] = elapsed
        payload["threads"].append(
            {"workers": workers, "seconds": elapsed, "diagnoses": n_diag}
        )
        lines.append(
            f"{'threads':<10} {N_INSTANCES:>5} {workers:>7} {elapsed:>8.2f} "
            f"{n_diag:>9} {n_diag / elapsed:>7.2f} {N_INSTANCES / elapsed:>7.2f}"
        )

    payload["processes"] = []
    for processes in (1, 2, min(4, max(2, cores))):
        if processes in {p["processes"] for p in payload["processes"]}:
            continue
        t0 = time.perf_counter()
        counts = run_sharded(feeds, processes=processes, config=SERVICE_CONFIG)
        elapsed = time.perf_counter() - t0
        n_diag = sum(counts.values())
        results[("procs", processes)] = elapsed
        payload["processes"].append(
            {"processes": processes, "seconds": elapsed, "diagnoses": n_diag}
        )
        lines.append(
            f"{'processes':<10} {N_INSTANCES:>5} {processes:>7} {elapsed:>8.2f} "
            f"{n_diag:>9} {n_diag / elapsed:>7.2f} {N_INSTANCES / elapsed:>7.2f}"
        )

    best_procs = min(4, max(2, cores))
    speedup_vs_thread1 = results[("threads", 1)] / results[("procs", best_procs)]
    speedup_vs_thread2 = results[("threads", 2)] / results[("procs", 2)]
    lines += [
        "",
        f"process pool ({best_procs} workers) speedup over 1 thread worker: "
        f"{speedup_vs_thread1:.2f}x",
        f"process pool (2 workers) speedup over 2 thread workers: "
        f"{speedup_vs_thread2:.2f}x",
    ]
    payload["speedups"] = {
        "procs_best_vs_thread1": speedup_vs_thread1,
        "procs2_vs_threads2": speedup_vs_thread2,
    }
    write_report("fleet_throughput", "\n".join(lines))
    write_json("fleet_throughput", payload)

    # Every configuration must fully diagnose the anomalous instances.
    anomalous = {f"db-{i:02d}" for i in range(0, N_INSTANCES, 2)}
    counts = run_sharded(feeds, processes=1, config=SERVICE_CONFIG)
    assert {iid for iid, n in counts.items() if n > 0} == anomalous

    # Multicore scaling is only measurable when cores exist to scale
    # onto; single-core CI boxes record the table but skip the bars.
    if cores >= 4:
        assert speedup_vs_thread2 >= 1.5, (
            f"expected the persistent pool to beat 2 thread workers by "
            f">=1.5x on {cores} cores, got {speedup_vs_thread2:.2f}x"
        )
        assert speedup_vs_thread1 >= 2.0, (
            f"expected >=2x process-pool scaling on {cores} cores, "
            f"got {speedup_vs_thread1:.2f}x"
        )
