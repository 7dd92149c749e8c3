"""Trace-propagation overhead — fleet drain with contexts on vs off.

Distributed tracing adds blake2b id minting on root spans, trace-header
stamping at ``publish_block`` time, and remote-parent adoption on block
ingest.  The span/histogram layer itself is already budgeted by
``bench_telemetry_overhead``; this benchmark isolates the *marginal*
cost of the distributed-identity layer by toggling the process-wide
propagation switch around an otherwise identical worker drain
(:func:`~repro.fleet.execute_work_item` over one columnar feed).  The
budget is < 5% of the propagation-off wall-clock.
"""

import numpy as np

from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.dbsim import DatabaseInstance
from repro.fleet import WorkItem, block_feed_from_broker, execute_work_item
from repro.telemetry.tracing import (
    set_trace_propagation,
    trace_propagation_enabled,
)
from repro.workload import WorkloadGenerator, build_population

from benchmarks.conftest import best_of, write_json, write_report

#: Long enough that the drain dominates setup, short enough to stay
#: a few seconds per repeat.
DURATION = 240


def _build_feed():
    """One instance's stream, collected as stamped columnar blocks."""
    rng = np.random.default_rng(8)
    population = build_population(DURATION, rng, n_businesses=4)
    db = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=8)
    run = db.run(WorkloadGenerator(population), duration=DURATION)
    broker = Broker()
    QueryLogCollector(broker, instance_id="db-bt").collect_blocks(run.query_log)
    MetricsCollector(broker, instance_id="db-bt").collect_blocks(run.metrics)
    return block_feed_from_broker(broker, "db-bt")


def test_trace_propagation_overhead(benchmark):
    assert trace_propagation_enabled(), "benchmark expects the default state"
    # Blocks are stamped at build time (propagation on) so both arms
    # decode identical frames; only the drain-side propagation differs.
    feed = _build_feed()
    drain = lambda: execute_work_item(WorkItem(feed=feed))  # noqa: E731
    try:
        drain()  # warm caches on the default (on) path
        t_on = best_of(drain, repeats=7, inner=10)
        set_trace_propagation(False)
        drain()
        t_off = best_of(drain, repeats=7, inner=10)
    finally:
        set_trace_propagation(True)
    overhead = t_on / t_off - 1
    lines = [
        "Trace-propagation overhead — execute_work_item drain, contexts on vs off",
        f"{'propagation off':<18} {t_off * 1e3:10.2f}ms",
        f"{'propagation on':<18} {t_on * 1e3:10.2f}ms",
        f"overhead: {overhead * 100:+.2f}% (budget: +5%)",
    ]
    write_report("trace_overhead", "\n".join(lines))
    write_json(
        "trace_overhead",
        {
            "duration_s": DURATION,
            "query_blocks": len(feed.query_payloads),
            "metric_blocks": len(feed.metric_payloads),
            "off_seconds": t_off,
            "on_seconds": t_on,
            "overhead_fraction": overhead,
            "budget_fraction": 0.05,
        },
    )

    assert overhead < 0.05, (
        f"trace propagation overhead {overhead * 100:.2f}% exceeds 5%"
    )

    benchmark(drain)
