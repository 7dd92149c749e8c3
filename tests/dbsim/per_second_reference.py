"""The per-second simulation loop that the engine's block pass replaced.

``reference_step(engine)`` simulates the engine's next second the way
the engine did before it stepped in blocks: one numpy pass per second,
counts drawn per second, arrivals sorted with ``lexsort``, the demand
summed over the second's own arrays.  It draws from the engine's own
generators and writes to its own lock manager, resource model, monitor
and query log, so a run stepped by it must equal ``engine.run`` bit for
bit.  ``test_engine.py::TestBlockStepping`` compares the two; any
change to the block pass's arithmetic or draw order shows there, even
one that the block pass shares with its one-second blocks.
"""

from __future__ import annotations

import numpy as np

from repro.dbsim.engine import ROWS_SIGMA
from repro.dbsim.spec import IO_PER_KROW


def _counts_of_second(engine, t: int):
    """Templates with arrivals in second ``t``, their registry rows and counts."""
    arrivals = engine.provider.arrivals(t, t + 1)
    sql_ids = list(arrivals.sql_ids)
    rates = arrivals.rates[0]
    exact = (np.full(len(sql_ids), -1) if arrivals.exact_counts is None
             else arrivals.exact_counts[0])
    # Templates with a positive rate in provider order, then exact-only ones.
    cols = [k for k, r in enumerate(rates) if r > 0]
    cols += [k for k, r in enumerate(rates) if not r > 0 and exact[k] >= 0]
    ids = [sql_ids[k] for k in cols]
    lam = rates[cols].astype(np.float64)
    factor = np.ones(len(ids))
    for th in engine.throttles:
        if th.start <= t < th.end and th.sql_id in ids:
            factor[ids.index(th.sql_id)] *= th.factor
    is_exact = exact[cols] >= 0
    lam[is_exact] = 0.0
    n = engine._counts_rng.poisson(np.maximum(lam * factor, 0.0))
    n[is_exact] = exact[cols][is_exact]

    active = np.flatnonzero(n)
    names = [ids[i] for i in active]
    registry = engine._registry
    rows = np.array(
        [registry.row_of[s] if s in registry.row_of else registry.add(engine._spec(s))
         for s in names], dtype=np.int64,
    )
    n = n[active]
    keep = np.where(is_exact[active], factor[active], 1.0)
    if engine.read_offload_fraction > 0.0:
        keep[registry.col["is_select"][rows]] *= 1.0 - engine.read_offload_fraction
    if (keep < 1.0).any():
        n = engine._counts_rng.binomial(n, keep)
        kept = np.flatnonzero(n)
        names, rows, n = [names[i] for i in kept], rows[kept], n[kept]
    overrides = {}
    if arrivals.rows_mean is not None:
        overrides = {s: m for s, m in zip(sql_ids, arrivals.rows_mean[0]) if not np.isnan(m)}
    return names, rows, n, overrides


def reference_step(engine) -> None:
    """Simulate the engine's next second with the per-second loop."""
    t = engine.now
    t_ms = t * 1000.0
    locks = engine.locks
    locks.prune_mdl(t_ms - 1000.0)
    locks.begin_block()

    names, rows, n, overrides = _counts_of_second(engine, t)
    col = {k: v[rows] for k, v in engine._registry.col.items()}
    total = int(n.sum())
    template = np.repeat(np.arange(len(names)), n)

    offset = engine._arrivals_rng.random(total) * 1000.0
    offset = offset[np.lexsort((offset, template))]
    arrive = t_ms + offset

    rows_mean = col["rows_mean"]
    for i, sql_id in enumerate(names):
        if sql_id in overrides:
            rows_mean[i] = overrides[sql_id]
    scans = rows_mean > 0
    mu = np.log(np.where(scans, rows_mean, 1.0)) - ROWS_SIGMA**2 / 2.0
    examined = np.exp(mu.repeat(n) + ROWS_SIGMA * engine._rows_rng.standard_normal(total))
    examined[~scans.repeat(n)] = 0.0

    krows = examined / 1000.0
    scan_ms = krows * col["cpu_per_krow"].repeat(n)
    base = col["base_ms"]
    cpu_demand = float(base @ n) * 0.3 + float(scan_ms.sum())
    io_demand = total + float(krows.sum()) * IO_PER_KROW

    table_idx = col["table_idx"]
    on_table = table_idx >= 0
    ddl = col["is_ddl"] & on_table
    writer = col["is_write"] & on_table & ~ddl
    bounds = np.concatenate(([0], np.cumsum(n)))
    for i in np.flatnonzero(ddl):
        table = engine._registry.tables[rows[i]]
        for a in arrive[bounds[i]:bounds[i + 1]]:
            locks.acquire_mdl(table, float(a), col["ddl_ms"][i])
    hold = col["hold_ms"]
    if writer.any():
        locks.add_write_load(table_idx[writer], n[writer], hold[writer])

    usage = engine.resources.step(cpu_demand, io_demand)
    slowdown = max(usage.cpu_slowdown, usage.io_slowdown)

    sigma = col["noise_sigma"].repeat(n)
    service = (base.repeat(n) + scan_ms) * np.exp(
        sigma * (engine._noise_rng.standard_normal(total) - sigma / 2.0)
    )
    response = service * slowdown
    if ddl.any():
        q = ddl.repeat(n)
        response[q] = col["ddl_ms"].repeat(n)[q] + service[q]
    locked = on_table & ~ddl
    waits, wait_ms = 0, 0.0
    if locked.any():
        self_pressure = np.where(writer, n * hold / 1000.0, 0.0)
        row_waits, stats = locks.row_lock_wait(
            table_idx[locked], n[locked], engine._locks_rng,
            exclude_self_pressure=self_pressure[locked],
        )
        waits, wait_ms = int(stats.waits[0]), float(stats.wait_time_ms[0])
        q = locked.repeat(n)
        mdl_waits = locks.mdl_wait(table_idx[locked].repeat(n[locked]), arrive[q])
        response[q] += row_waits + mdl_waits

    engine.query_log.append_chunk(names, template, arrive.astype(np.int64), response, examined)
    engine.monitor.record_second(
        cpu_usage=usage.cpu_usage,
        iops_usage=usage.iops_usage,
        mem_usage=usage.mem_usage,
        qps=float(total),
        row_lock_waits=float(waits),
        row_lock_time_ms=wait_ms,
    )
    engine.now += 1
