"""Block-stepped vectorised simulation loop.

The model's grain is one second: rates, throttles, the resource model,
row-lock pressure and every metric sample are per second.  The
execution is per block: :meth:`SimulationEngine.step` simulates a block
of consecutive seconds in one numpy pass over a (seconds × templates)
count matrix.  :meth:`SimulationEngine.run` advances in blocks of at
most :data:`BLOCK_S` seconds, or one second at a time when an
``on_second`` hook runs before each second.  Each block:

1. the provider's :meth:`RateProvider.arrivals` gives the block's rates,
   exact counts and rows-mean overrides as (seconds × templates)
   arrays; active throttles scale the Poisson rates, one Poisson draw
   gives every count and exact counts replace theirs.  A second whose
   counts are thinned — exact counts by their throttles, SELECT counts
   by the read-offload fraction — draws its Poisson counts, then its
   binomial thinning, before the next second's counts are drawn;
2. queries are laid out second by second and, within a second, in
   groups template by template: templates with a positive rate in
   provider order, then exact-only templates.  Arrival instants,
   examined rows and service noise are each one draw sized to the
   block's total; arrivals are sorted within each group;
3. DDL arrivals register exclusive MDL windows, writers' row-lock
   pressure per (second, table) is one ``bincount``
   (:meth:`LockManager.add_write_load`), and one
   :meth:`LockManager.row_lock_wait` and one
   :meth:`LockManager.mdl_wait` call give every query's lock waits;
4. second by second, the CPU/IO demand (sums over the second's slice of
   queries) goes to the resource model for the processor-sharing
   slowdown, and the second's counters to the monitor;
5. response = lognormal service time × slowdown + row-lock wait + MDL
   wait;
6. the block's queries go to the :class:`QueryLog` as one columnar
   chunk, templates new to the log in order of first arrival.

Bit identity: a block gives exactly the output of stepping its seconds
one at a time — the same query-log columns and ``sql_ids`` order, metric
series and SHOW STATUS instants — for every seed and block length.  Each
draw kind consumes its stream in the same order either way: a Poisson
rate of zero draws nothing, thinned seconds draw in turn as above, and
the lock stream draws per second (uniforms, then exponentials for the
conflicted queries, nothing in a second without net pressure).  The
per-second demand sums run over the same slices.

Spec columns (statement kind flags, table index, base cost, rows mean,
scan cost, noise sigma, hold and DDL durations) live in a per-engine
template registry: a template's row is filled when the provider first
serves it and refreshed by :meth:`SimulationEngine.override_spec`.

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
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from repro.dbsim.locks import LockManager, RowLockStats
from repro.dbsim.monitor import Monitor
from repro.dbsim.query import QueryLog
from repro.dbsim.resources import ResourceModel
from repro.dbsim.spec import IO_PER_KROW, TemplateSpec
from repro.sqltemplate import StatementKind

__all__ = ["BLOCK_S", "DRAW_KINDS", "Arrivals", "RateProvider", "Throttle", "SimulationEngine"]

#: One child generator per draw kind, spawned in this order.
DRAW_KINDS = ("counts", "arrivals", "rows", "noise", "locks")
#: Lognormal dispersion of examined rows around a template's mean.
ROWS_SIGMA = 0.35
#: Longest block :meth:`SimulationEngine.run` simulates in one pass.  A
#: block's per-query arrays are its peak memory, so the bound keeps it
#: independent of the run's length.
BLOCK_S = 30


class Arrivals(NamedTuple):
    """A provider's traffic over a block of seconds.

    Each array has one row per second of the block and one column per
    template of ``sql_ids``.
    """

    sql_ids: Sequence[str]
    #: Poisson arrival rates (queries/second).
    rates: np.ndarray
    #: Exact arrival counts (e.g. a one-shot DDL) replacing the Poisson
    #: draw; a negative entry leaves its cell to the rate.  None when
    #: the block has none.
    exact_counts: np.ndarray | None = None
    #: ``examined_rows_mean`` overrides — time-varying scan cost (data
    #: growth, plan regressions); NaN keeps the spec's mean.  None when
    #: the block has none.
    rows_mean: np.ndarray | None = None


class RateProvider(Protocol):
    """Workload interface the engine pulls from."""

    @property
    def specs(self) -> dict[str, TemplateSpec]:
        """Execution spec of every template the workload can emit."""
        ...

    def arrivals(self, t0: int, t1: int) -> Arrivals:
        """Traffic of seconds ``[t0, t1)``; the engine only reads the arrays."""
        ...


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
    """Steps a database instance through blocks of seconds."""

    def __init__(
        self,
        provider: RateProvider,
        resources: ResourceModel,
        locks: LockManager,
        start_time: int = 0,
        seed: int = 0,
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
        #: Specs swapped in by repair actions (query optimization), also
        #: for templates the engine has not served yet.
        self._spec_overrides: dict[str, TemplateSpec] = {}
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
        self._spec_overrides[spec.sql_id] = spec
        row = self._registry.row_of.get(spec.sql_id)
        if row is not None:
            self._registry.fill(row, spec)

    def _spec(self, sql_id: str) -> TemplateSpec:
        return self._spec_overrides.get(sql_id) or self.provider.specs[sql_id]

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def _arrival_groups(
        self, t0: int, n_seconds: int
    ) -> tuple[Sequence[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """The block's query groups, one per (second, template) with arrivals.

        Returns the provider's ``sql_ids``, each group's second (index
        into the block), column in ``sql_ids`` and count, the registry
        row of every column, and each group's rows-mean override (NaN
        for none; None when the block has none).  Groups are in
        simulation order: by second, then templates with a positive rate
        in column order, then exact-only templates.
        """
        arrivals = self.provider.arrivals(t0, t0 + n_seconds)
        sql_ids = arrivals.sql_ids
        registry = self._registry
        row_of = registry.row_of
        rows = np.fromiter(
            (row_of[s] if s in row_of else registry.add(self._spec(s)) for s in sql_ids),
            np.int64, len(sql_ids),
        )
        rates = arrivals.rates
        factor = np.ones(rates.shape)
        if self.throttles:
            col_of = {sql_id: k for k, sql_id in enumerate(sql_ids)}
            for th in self.throttles:
                k = col_of.get(th.sql_id)
                lo, hi = max(th.start - t0, 0), min(th.end - t0, n_seconds)
                if k is not None and lo < hi:
                    factor[lo:hi, k] *= th.factor
        exact = arrivals.exact_counts
        if exact is None:
            exact = np.full(rates.shape, -1, dtype=np.int64)
        is_exact = exact >= 0
        lam = np.maximum(np.where(is_exact, 0.0, rates) * factor, 0.0)
        # Binomial thinning: exact counts by their throttles, SELECTs by
        # the read-offload fraction.
        keep = np.where(is_exact, factor, 1.0)
        if self.read_offload_fraction > 0.0:
            keep[:, registry.col["is_select"][rows]] *= 1.0 - self.read_offload_fraction
        thins = (((lam > 0) | (exact > 0)) & (keep < 1.0)).any(axis=1)

        # Poisson counts are drawn in segments that each end at a thinned
        # second, whose binomial draw (over its groups, in order) follows
        # its own Poisson draws and precedes the next second's.
        positive = rates > 0
        n = np.where(is_exact, exact, 0)
        start = 0
        for s in [*np.flatnonzero(thins).tolist(), n_seconds]:
            stop = min(s + 1, n_seconds)
            if start < stop:
                drawn = self._counts_rng.poisson(lam[start:stop])
                n[start:stop] = np.where(is_exact[start:stop], n[start:stop], drawn)
            start = stop
            if s < n_seconds:
                active = n[s] > 0
                groups = np.flatnonzero(np.concatenate((active & positive[s],
                                                        active & ~positive[s])))
                groups %= len(sql_ids)
                if (keep[s, groups] < 1.0).any():
                    n[s, groups] = self._counts_rng.binomial(n[s, groups], keep[s, groups])

        active = n > 0
        slots = np.flatnonzero(np.hstack((active & positive, active & ~positive)))
        second, column = np.divmod(slots, 2 * len(sql_ids))
        column %= len(sql_ids)
        override = None if arrivals.rows_mean is None else arrivals.rows_mean[second, column]
        return sql_ids, second, column, n[second, column], rows, override

    def step(self, seconds: int = 1) -> None:
        """Simulate the next ``seconds`` seconds as one block and advance the clock."""
        n_seconds = int(seconds)
        if n_seconds < 1:
            raise ValueError("seconds must be positive")
        t0 = self.now
        locks = self.locks
        locks.prune_mdl(t0 * 1000.0 - 1000.0)

        sql_ids, second, column, n, rows, rows_override = self._arrival_groups(t0, n_seconds)
        row = rows[column]
        cols = {k: v[row] for k, v in self._registry.col.items()}
        total = int(n.sum())
        bounds = np.concatenate(([0], np.cumsum(n)))
        query_second = second.repeat(n)

        # Arrival instants, sorted within each group: by offset, then
        # stably by group.  Only the sorted values are used, so tied
        # offsets may fall in any order.  Group ids in the smallest
        # unsigned dtype sort by radix (up to 65,536 groups).
        offset = self._arrivals_rng.random(total) * 1000.0
        group = np.repeat(np.arange(len(n), dtype=np.min_scalar_type(len(n))), n)
        order = np.argsort(offset)
        order = order[np.argsort(group[order], kind="stable")]
        arrive = ((t0 + np.arange(n_seconds)) * 1000.0)[query_second] + offset[order]

        # Examined rows: lognormal around the (possibly time-varying) mean.
        rows_mean = cols["rows_mean"]
        if rows_override is not None:
            rows_mean = np.where(np.isnan(rows_override), rows_mean, rows_override)
        scans = rows_mean > 0
        mu = np.log(np.where(scans, rows_mean, 1.0)) - ROWS_SIGMA**2 / 2.0
        examined = np.exp(mu.repeat(n) + ROWS_SIGMA * self._rows_rng.standard_normal(total))
        examined[~scans.repeat(n)] = 0.0
        krows = examined / 1000.0
        scan_ms = krows * cols["cpu_per_krow"].repeat(n)
        base = cols["base_ms"]

        # Locks: DDL arrivals take MDL windows, writers add row-lock
        # pressure on their table in their second.
        table_idx = cols["table_idx"]
        on_table = table_idx >= 0
        ddl = cols["is_ddl"] & on_table
        writer = cols["is_write"] & on_table & ~ddl
        for i in np.flatnonzero(ddl).tolist():
            table = self._registry.tables[row[i]]
            assert table is not None  # `ddl` only covers templates on a table
            for a in arrive[bounds[i]:bounds[i + 1]].tolist():
                locks.acquire_mdl(table, a, cols["ddl_ms"][i])
        hold = cols["hold_ms"]
        locks.begin_block(n_seconds)
        if writer.any():
            locks.add_write_load(table_idx[writer], n[writer], hold[writer], second[writer])
        locked = on_table & ~ddl
        lock_waits: np.ndarray | None = None
        stats = RowLockStats(np.zeros(n_seconds, dtype=np.int64), np.zeros(n_seconds))
        if locked.any():
            # Row-lock conflicts (excluding self-generated pressure) and
            # metadata-lock blocking.
            self_pressure = np.where(writer, n * hold / 1000.0, 0.0)
            row_waits, stats = locks.row_lock_wait(
                table_idx[locked], n[locked], self._locks_rng,
                exclude_self_pressure=self_pressure[locked], second=second[locked],
            )
            q = locked.repeat(n)
            lock_waits = row_waits + locks.mdl_wait(
                table_idx[locked].repeat(n[locked]), arrive[q]
            )

        # Per second: demand -> processor-sharing slowdown, and counters.
        group_bounds = np.searchsorted(second, np.arange(n_seconds + 1)).tolist()
        query_bounds = bounds[group_bounds].tolist()
        slowdown = np.empty(n_seconds)
        for s in range(n_seconds):
            g0, g1 = group_bounds[s], group_bounds[s + 1]
            q0, q1 = query_bounds[s], query_bounds[s + 1]
            cpu_demand = float(base[g0:g1] @ n[g0:g1]) * 0.3 + float(scan_ms[q0:q1].sum())
            io_demand = (q1 - q0) + float(krows[q0:q1].sum()) * IO_PER_KROW
            usage = self.resources.step(cpu_demand, io_demand)
            slowdown[s] = max(usage.cpu_slowdown, usage.io_slowdown)
            self.monitor.record_second(
                cpu_usage=usage.cpu_usage,
                iops_usage=usage.iops_usage,
                mem_usage=usage.mem_usage,
                qps=float(q1 - q0),
                row_lock_waits=float(stats.waits[s]),
                row_lock_time_ms=float(stats.wait_time_ms[s]),
            )

        # Response times = service × slowdown + lock waits.
        sigma = cols["noise_sigma"].repeat(n)
        service = (base.repeat(n) + scan_ms) * np.exp(
            sigma * (self._noise_rng.standard_normal(total) - sigma / 2.0)
        )
        response = service * slowdown[query_second]
        if ddl.any():
            # The DDL itself runs for its lock duration.
            q = ddl.repeat(n)
            response[q] = cols["ddl_ms"].repeat(n)[q] + service[q]
        if lock_waits is not None:
            response[locked.repeat(n)] += lock_waits

        # Templates new to the log register in order of first arrival.
        seen, first = np.unique(column, return_index=True)
        seen = seen[np.argsort(first)]
        code = np.empty(len(sql_ids), dtype=np.int64)
        code[seen] = np.arange(len(seen))
        self.query_log.append_chunk(
            [sql_ids[k] for k in seen.tolist()], code[column].repeat(n),
            arrive.astype(np.int64), response, examined,
        )
        self.now += n_seconds

    def run(self, seconds: int, on_second=None) -> None:
        """Simulate ``seconds`` seconds in blocks of at most :data:`BLOCK_S`.

        With ``on_second(t, engine)``, the hook is called before each
        second and the run steps one second at a time, so callers (e.g.
        the repair case study) can intervene.
        """
        end = self.now + int(seconds)
        while self.now < end:
            if on_second is None:
                self.step(min(BLOCK_S, end - self.now))
            else:
                on_second(self.now, self)
                self.step()
