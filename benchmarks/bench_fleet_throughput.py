"""Fleet diagnosis throughput: does the process pool scale?

The persistent-process pool (:mod:`repro.fleet.workers`) is the only
way to diagnose a fleet in parallel (PinSQL analysis holds the GIL).
Its drains are timed at 1, 2 and up to 4 worker processes against
``run_sharded(processes=1)``, which runs the same work items inline.
Asserted (≥1.5× at 2 processes, ≥2× at the best pool) only when the
machine has cores to scale onto.

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
from repro.fleet import BlockFeed, ServiceConfig, run_sharded
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


#: Cache key of the simulated feeds; bump it when what they carry changes.
FEEDS_KEY = f"fleet_feeds_v4_{N_INSTANCES}x{DURATION}"


def _simulate_feeds():
    """Simulate the fleet once; returns picklable per-instance feeds of
    per-second blocks (the layer-overhead bench replays them by chunk),
    each carrying its population's raw SQL exemplars so the engines
    that replay it run static analysis over a real catalog."""
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
        feed = BlockFeed.from_broker(broker, instance_id).unstamped()
        feed.statements = [
            spec.exemplar or spec.template for spec in population.specs.values()
        ]
        feeds.append(feed)
    return feeds


def test_fleet_throughput():
    feeds = _cached(FEEDS_KEY, _simulate_feeds)
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

    lines.append(
        f"{'processes':>9} {'fleet':>5} {'seconds':>8} "
        f"{'diagnoses':>9} {'diag/s':>7} {'inst/s':>7} {'speedup':>7}"
    )
    best_procs = min(4, max(2, cores))
    results: dict[int, float] = {}
    diagnosed: dict[int, set[str]] = {}
    payload["processes"] = []
    for processes in dict.fromkeys((1, 2, best_procs)):
        t0 = time.perf_counter()
        counts = run_sharded(feeds, processes=processes, config=SERVICE_CONFIG)
        elapsed = time.perf_counter() - t0
        n_diag = sum(counts.values())
        results[processes] = elapsed
        diagnosed[processes] = {iid for iid, n in counts.items() if n > 0}
        payload["processes"].append(
            {"processes": processes, "seconds": elapsed, "diagnoses": n_diag}
        )
        lines.append(
            f"{processes:>9} {N_INSTANCES:>5} {elapsed:>8.2f} "
            f"{n_diag:>9} {n_diag / elapsed:>7.2f} {N_INSTANCES / elapsed:>7.2f} "
            f"{results[1] / elapsed:>6.2f}x"
        )

    speedup_best = results[1] / results[best_procs]
    speedup_2 = results[1] / results[2]
    payload["speedups"] = {
        "procs_best_vs_procs1": speedup_best,
        "procs2_vs_procs1": speedup_2,
    }
    write_report("fleet_throughput", "\n".join(lines))
    write_json("fleet_throughput", payload)

    # Every pool size must fully diagnose the anomalous instances.
    anomalous = {f"db-{i:02d}" for i in range(0, N_INSTANCES, 2)}
    for processes, ids in diagnosed.items():
        assert ids == anomalous, f"{processes} process(es) diagnosed {sorted(ids)}"

    # Multicore scaling is only measurable when cores exist to scale
    # onto; single-core CI boxes record the table but skip the bars.
    if cores >= 4:
        assert speedup_2 >= 1.5, (
            f"expected 2 worker processes to beat 1 by >=1.5x on "
            f"{cores} cores, got {speedup_2:.2f}x"
        )
        assert speedup_best >= 2.0, (
            f"expected >=2x process-pool scaling on {cores} cores, "
            f"got {speedup_best:.2f}x"
        )
