"""Per-second vectorised simulation loop.

Each simulated second is one numpy pass over every query that arrives
in it:

1. the provider's rates (and exact ``counts_at`` arrivals) become
   vectors; active throttles scale the Poisson rates, one Poisson draw
   gives every count, and one binomial draw thins exact counts by their
   throttles and SELECT counts by the read-offload fraction;
2. arrival instants, examined rows and service noise are each one draw
   sized to the second's total; arrivals are sorted within each template
   with ``lexsort``;
3. the second's CPU/IO demand is a vector sum, submitted to the resource
   model for the processor-sharing slowdown;
4. DDL arrivals register exclusive MDL windows, and writers' row-lock
   pressure per table is one ``bincount`` over the templates' table
   index (:meth:`LockManager.add_write_load`);
5. response = lognormal service time × slowdown + row-lock wait + MDL
   wait, the waits from one :meth:`LockManager.row_lock_wait` and one
   :meth:`LockManager.mdl_wait` call over the second's queries;
6. the second's queries go to the :class:`QueryLog` as one columnar
   chunk, and its counters to the monitor.

Spec columns (statement kind flags, table index, base cost, rows mean,
scan cost, noise sigma, hold and DDL durations) live in a per-engine
template registry: a template's row is filled when the engine first sees
it and refreshed by :meth:`SimulationEngine.override_spec`.

Draw layout: ``np.random.SeedSequence(seed).spawn(5)`` gives one child
generator per draw kind, in :data:`DRAW_KINDS` order — counts (Poisson
and binomial thinning), arrival instants, examined rows, service noise,
and lock draws (conflicts and waits).  A change to how one kind is drawn
leaves every other kind's stream bit-identical: a new lock model keeps
arrivals and rows.  The monitor's SHOW STATUS instants use their own
``seed + 1`` generator.

The per-query record set (template id, arrival ms, response ms, examined
rows) matches exactly what the paper's collectors ship to LogStore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.dbsim.locks import LockManager, RowLockStats
from repro.dbsim.monitor import Monitor
from repro.dbsim.query import QueryLog
from repro.dbsim.resources import ResourceModel
from repro.dbsim.spec import IO_PER_KROW, TemplateSpec
from repro.sqltemplate import StatementKind

__all__ = ["DRAW_KINDS", "RateProvider", "Throttle", "SimulationEngine"]

#: One child generator per draw kind, spawned in this order.
DRAW_KINDS = ("counts", "arrivals", "rows", "noise", "locks")
#: Lognormal dispersion of examined rows around a template's mean.
ROWS_SIGMA = 0.35


class RateProvider(Protocol):
    """Workload interface the engine pulls from."""

    @property
    def specs(self) -> dict[str, TemplateSpec]:
        """Execution spec of every template the workload can emit."""
        ...

    def rates_at(self, t: int) -> dict[str, float]:
        """Arrival rate (queries/second) per template at second ``t``."""
        ...

    # Providers may additionally implement
    #   counts_at(t: int) -> dict[str, int]
    # to request an *exact* number of arrivals for selected templates in
    # second ``t`` (e.g. a single one-shot DDL).  The engine samples
    # Poisson arrivals for everything else.  A second optional hook,
    #   rows_at(t: int) -> dict[str, float]
    # overrides selected templates' ``examined_rows_mean`` for second
    # ``t`` — time-varying scan cost (data growth, plan regressions).


@dataclass
class Throttle:
    """A rate-limiting window applied to one template (repair action)."""

    sql_id: str
    factor: float          # 0.0 kills the template, 0.5 halves its rate
    start: int             # seconds, inclusive
    end: int               # seconds, exclusive

    def __post_init__(self) -> None:
        if not 0.0 <= self.factor <= 1.0:
            raise ValueError("throttle factor must lie in [0, 1]")

    def active_at(self, t: int) -> bool:
        return self.start <= t < self.end


class _TemplateRegistry:
    """Spec columns, one row per template the engine has seen."""

    _COLUMNS = (
        ("is_write", np.bool_), ("is_ddl", np.bool_), ("is_select", np.bool_),
        ("table_idx", np.int64), ("base_ms", np.float64), ("rows_mean", np.float64),
        ("cpu_per_krow", np.float64), ("noise_sigma", np.float64),
        ("hold_ms", np.float64), ("ddl_ms", np.float64),
    )

    def __init__(self, locks: LockManager) -> None:
        self._locks = locks
        self.row_of: dict[str, int] = {}
        self.tables: list[str | None] = []
        self.col = {name: np.zeros(16, dtype=dtype) for name, dtype in self._COLUMNS}

    def add(self, spec: TemplateSpec) -> int:
        row = self.row_of[spec.sql_id] = len(self.row_of)
        if row == len(self.col["base_ms"]):
            self.col = {k: np.concatenate((v, np.zeros_like(v))) for k, v in self.col.items()}
        self.tables.append(None)
        self.fill(row, spec)
        return row

    def fill(self, row: int, spec: TemplateSpec) -> None:
        table = spec.table
        self.tables[row] = table
        col = self.col
        col["is_write"][row] = spec.is_write
        col["is_ddl"][row] = spec.is_ddl
        col["is_select"][row] = spec.kind is StatementKind.SELECT
        col["table_idx"][row] = -1 if table is None else self._locks.table_index(table)
        col["base_ms"][row] = spec.base_response_ms
        col["rows_mean"][row] = spec.examined_rows_mean
        col["cpu_per_krow"][row] = spec.cpu_per_krow
        col["noise_sigma"][row] = np.sqrt(np.log1p(max(spec.response_cv, 1e-3) ** 2))
        col["hold_ms"][row] = spec.lock_hold_ms
        col["ddl_ms"][row] = spec.ddl_duration_ms


class SimulationEngine:
    """Steps a database instance one second at a time."""

    def __init__(
        self,
        provider: RateProvider,
        resources: ResourceModel,
        locks: LockManager,
        start_time: int = 0,
        seed: int = 0,
        spec_overrides: dict[str, TemplateSpec] | None = None,
    ) -> None:
        self.provider = provider
        self.resources = resources
        self.locks = locks
        self.start_time = int(start_time)
        self.now = int(start_time)
        (self._counts_rng, self._arrivals_rng, self._rows_rng, self._noise_rng,
         self._locks_rng) = (
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(len(DRAW_KINDS))
        )
        self.query_log = QueryLog()
        self.monitor = Monitor(start_time, np.random.default_rng(seed + 1))
        self.throttles: list[Throttle] = []
        #: Repair actions may override a template's spec mid-run
        #: (query optimization swaps in an optimized spec).
        self.spec_overrides: dict[str, TemplateSpec] = dict(spec_overrides or {})
        #: Fraction of read (SELECT) traffic offloaded to read replicas
        #: (AutoScale "add read-only nodes").  Offloaded queries leave the
        #: primary entirely: they cost it no CPU/IO and appear in neither
        #: its logs nor its active session.
        self.read_offload_fraction = 0.0
        self._registry = _TemplateRegistry(locks)

    # ------------------------------------------------------------------
    # Control-plane hooks used by the repairing module
    # ------------------------------------------------------------------
    def add_throttle(self, throttle: Throttle) -> None:
        self.throttles.append(throttle)

    def override_spec(self, spec: TemplateSpec) -> None:
        self.spec_overrides[spec.sql_id] = spec
        row = self._registry.row_of.get(spec.sql_id)
        if row is not None:
            self._registry.fill(row, spec)

    def _spec(self, sql_id: str) -> TemplateSpec:
        return self.spec_overrides.get(sql_id) or self.provider.specs[sql_id]

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def _arrival_counts(self, t: int) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Templates with arrivals this second, their registry rows and counts."""
        rates = self.provider.rates_at(t)
        counts_fn = getattr(self.provider, "counts_at", None)
        exact = counts_fn(t) if counts_fn else {}
        ids = [*rates, *(k for k in exact if k not in rates)]
        lam = np.zeros(len(ids))
        lam[: len(rates)] = np.fromiter(rates.values(), np.float64, len(rates))
        factor = np.ones(len(ids))
        active_throttles = [th for th in self.throttles if th.active_at(t)]
        if active_throttles:
            pos = {sql_id: i for i, sql_id in enumerate(ids)}
            for th in active_throttles:
                if th.sql_id in pos:
                    factor[pos[th.sql_id]] *= th.factor
        is_exact = np.zeros(len(ids), dtype=bool)
        if exact:
            is_exact[:] = [sql_id in exact for sql_id in ids]
            lam[is_exact] = 0.0
        n = self._counts_rng.poisson(np.maximum(lam * factor, 0.0))
        if exact:
            n[is_exact] = [max(int(exact[ids[i]]), 0) for i in np.flatnonzero(is_exact)]

        active = np.flatnonzero(n)
        names = [ids[i] for i in active]
        registry = self._registry
        row_of = registry.row_of
        rows = np.fromiter(
            (row_of[s] if s in row_of else registry.add(self._spec(s)) for s in names),
            np.int64, len(names),
        )
        n = n[active]
        # Binomial thinning: exact counts by their throttles, SELECTs by
        # the read-offload fraction.
        keep = np.where(is_exact[active], factor[active], 1.0)
        if self.read_offload_fraction > 0.0:
            keep[registry.col["is_select"][rows]] *= 1.0 - self.read_offload_fraction
        if (keep < 1.0).any():
            n = self._counts_rng.binomial(n, keep)
            kept = np.flatnonzero(n)
            names, rows, n = [names[i] for i in kept], rows[kept], n[kept]
        return names, rows, n

    def step(self) -> None:
        """Simulate one second and advance the clock."""
        t = self.now
        t_ms = t * 1000.0
        locks = self.locks
        locks.prune_mdl(t_ms - 1000.0)
        locks.begin_second()

        names, rows, n = self._arrival_counts(t)
        col = {k: v[rows] for k, v in self._registry.col.items()}
        total = int(n.sum())
        template = np.repeat(np.arange(len(names)), n)

        # Arrival instants, sorted within each template.
        offset = self._arrivals_rng.random(total) * 1000.0
        offset = offset[np.lexsort((offset, template))]
        arrive = t_ms + offset

        # Examined rows: lognormal around the (possibly time-varying) mean.
        rows_mean = col["rows_mean"]
        rows_fn = getattr(self.provider, "rows_at", None)
        overrides = rows_fn(t) if rows_fn else {}
        if overrides:
            pos = {sql_id: i for i, sql_id in enumerate(names)}
            for sql_id, mean in overrides.items():
                if sql_id in pos:
                    rows_mean[pos[sql_id]] = mean
        scans = rows_mean > 0
        mu = np.log(np.where(scans, rows_mean, 1.0)) - ROWS_SIGMA**2 / 2.0
        examined = np.exp(mu.repeat(n) + ROWS_SIGMA * self._rows_rng.standard_normal(total))
        examined[~scans.repeat(n)] = 0.0

        krows = examined / 1000.0
        scan_ms = krows * col["cpu_per_krow"].repeat(n)
        base = col["base_ms"]
        cpu_demand = float(base @ n) * 0.3 + float(scan_ms.sum())
        io_demand = total + float(krows.sum()) * IO_PER_KROW

        # Lock registration: DDL arrivals take MDL windows, writers add
        # row-lock pressure on their table.
        table_idx = col["table_idx"]
        on_table = table_idx >= 0
        ddl = col["is_ddl"] & on_table
        writer = col["is_write"] & on_table & ~ddl
        if ddl.any():
            bounds = np.concatenate(([0], np.cumsum(n)))
            tables = self._registry.tables
            for i in np.flatnonzero(ddl):
                table = tables[rows[i]]
                assert table is not None  # `ddl` only covers templates on a table
                for a in arrive[bounds[i]:bounds[i + 1]]:
                    locks.acquire_mdl(table, float(a), col["ddl_ms"][i])
        hold = col["hold_ms"]
        if writer.any():
            locks.add_write_load(table_idx[writer], n[writer], hold[writer])

        usage = self.resources.step(cpu_demand, io_demand)
        slowdown = max(usage.cpu_slowdown, usage.io_slowdown)

        # Response times = service × slowdown + lock waits.
        sigma = col["noise_sigma"].repeat(n)
        service = (base.repeat(n) + scan_ms) * np.exp(
            sigma * (self._noise_rng.standard_normal(total) - sigma / 2.0)
        )
        response = service * slowdown
        if ddl.any():
            # The DDL itself runs for its lock duration.
            q = ddl.repeat(n)
            response[q] = col["ddl_ms"].repeat(n)[q] + service[q]
        locked = on_table & ~ddl
        stats = RowLockStats()
        if locked.any():
            # Row-lock conflicts (excluding self-generated pressure) and
            # metadata-lock blocking.
            self_pressure = np.where(writer, n * hold / 1000.0, 0.0)
            row_waits, stats = locks.row_lock_wait(
                table_idx[locked], n[locked], self._locks_rng,
                exclude_self_pressure=self_pressure[locked],
            )
            q = locked.repeat(n)
            mdl_waits = locks.mdl_wait(table_idx[locked].repeat(n[locked]), arrive[q])
            response[q] += row_waits + mdl_waits

        self.query_log.append_chunk(
            names, template, arrive.astype(np.int64), response, examined
        )
        self.monitor.record_second(
            cpu_usage=usage.cpu_usage,
            iops_usage=usage.iops_usage,
            mem_usage=usage.mem_usage,
            qps=float(total),
            row_lock_waits=float(stats.waits),
            row_lock_time_ms=stats.wait_time_ms,
        )
        self.now += 1

    def run(self, seconds: int, on_second=None) -> None:
        """Run ``seconds`` steps; ``on_second(t, engine)`` is called before
        each step so callers (e.g. the repair case study) can intervene."""
        for _ in range(int(seconds)):
            if on_second is not None:
                on_second(self.now, self)
            self.step()
