"""Workload advisory passes: cross-statement analysis over a template set.

Each pass inspects a :class:`WorkloadContext` — every template's
``StatementIR`` plus traffic weights and schema metadata — and yields
:class:`~repro.sqlanalysis.workload.advisory.Advisory` objects.  Passes
register themselves with :func:`register_pass`, the same pluggable
pattern as the per-statement lint rules, so downstream code can add
site-specific workload checks without touching this module.

Built-in passes:

``lock-conflict``
    Builds a lock-acquisition-order graph over locking statements and
    flags opposite-order table pairs (deadlock risk) plus hot tables
    carrying several broad-footprint writers (write-write convoys).
``index-advisor``
    Enumerates candidate single/composite indexes from sargable
    predicate sets, scores traffic-weighted avoided scan rows against
    existing indexes, and deduplicates prefix-subsumed candidates.
``join-fanout``
    Flags cartesian-prone join graphs and unbounded fan-out (WHERE-less,
    LIMIT-less statements) across templates sharing hot tables.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from repro.dbsim.tables import Schema
from repro.sqlanalysis.ir import StatementIR
from repro.sqlanalysis.rules import Severity
from repro.sqlanalysis.workload.advisory import Advisory
from repro.sqltemplate.fingerprint import StatementKind

__all__ = [
    "TrafficWeight",
    "TemplateFootprint",
    "WorkloadConfig",
    "WorkloadContext",
    "AdvisoryPass",
    "register_pass",
    "default_passes",
    "pass_ids",
    "LockConflictPass",
    "IndexAdvisorPass",
    "JoinFanoutPass",
]


@dataclass(frozen=True)
class TrafficWeight:
    """Observed traffic for one template over the analysis window."""

    calls: float = 1.0
    rows_examined: float = 0.0

    @property
    def rows_per_call(self) -> float:
        return self.rows_examined / self.calls if self.calls > 0 else 0.0


@dataclass(frozen=True)
class TemplateFootprint:
    """One template's parsed shape plus its traffic weight."""

    sql_id: str
    ir: StatementIR
    weight: TrafficWeight = field(default_factory=TrafficWeight)


@dataclass(frozen=True)
class WorkloadConfig:
    """Tunable thresholds for the workload passes."""

    #: How many tables count as "hot" (by traffic) for the conflict and
    #: fan-out passes.
    hot_table_count: int = 3
    large_table_rows: int = 100_000
    #: Rows per call an index-backed access is expected to examine; the
    #: advisor scores rows avoided beyond this target.
    index_target_rows: float = 200.0
    #: Minimum traffic-weighted avoided rows before an index advisory fires.
    min_index_benefit: float = 10_000.0
    #: Minimum combined calls before a write-write conflict advisory fires.
    min_conflict_calls: float = 30.0
    max_advisories: int = 64


@dataclass(frozen=True)
class WorkloadContext:
    """What the passes know: parsed templates, traffic, schema metadata."""

    schema: Schema | None = None
    #: Sorted by ``sql_id`` — passes iterate this for determinism.
    templates: tuple[TemplateFootprint, ...] = ()
    hot_tables: frozenset[str] = frozenset()
    config: WorkloadConfig = field(default_factory=WorkloadConfig)

    def table_rows(self, name: str) -> int | None:
        if self.schema is None:
            return None
        table = self.schema.get(name)
        return None if table is None else table.row_count

    def knows_table(self, name: str) -> bool:
        """True when index metadata for ``name`` is available.

        Passes whose claim depends on what indexes exist (the index
        advisor, the broad-writer heuristic) must stay silent when this
        is False: without the schema they cannot rule out an existing
        index, and a wrong "no index serves this" is worse than no
        advisory.
        """
        return self.schema is not None and self.schema.get(name) is not None

    def is_indexed(self, table: str, column: str) -> bool | None:
        """True/False when the schema knows the table, None when it doesn't."""
        if self.schema is None:
            return None
        tab = self.schema.get(table)
        return None if tab is None else tab.has_index(column)

    def covered_by_existing(self, table: str, columns: tuple[str, ...]) -> bool:
        """True when an existing index already serves ``columns`` as a prefix."""
        if self.schema is None:
            return False
        tab = self.schema.get(table)
        return False if tab is None else tab.covers(columns)


class AdvisoryPass(abc.ABC):
    """Base class for workload-level advisory passes."""

    pass_id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def run(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        """Yield advisories over the whole template set."""


_REGISTRY: dict[str, AdvisoryPass] = {}


def register_pass(cls: type[AdvisoryPass]) -> type[AdvisoryPass]:
    """Class decorator adding a pass (by ``pass_id``) to the registry."""
    if not cls.pass_id:
        raise ValueError(f"{cls.__name__} must define a pass_id")
    _REGISTRY[cls.pass_id] = cls()
    return cls


def default_passes() -> tuple[AdvisoryPass, ...]:
    """The registered passes, in registration order."""
    return tuple(_REGISTRY.values())


def pass_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


_WRITE_KINDS = (StatementKind.UPDATE, StatementKind.DELETE)
_SCAN_KINDS = (StatementKind.SELECT, StatementKind.UPDATE, StatementKind.DELETE)


def _distinct_tables(ir: StatementIR) -> tuple[str, ...]:
    """Table names in statement (lock-acquisition) order, deduplicated."""
    out: list[str] = []
    for name in ir.table_names:
        if name not in out:
            out.append(name)
    return tuple(out)


def _index_backed(ir: StatementIR, table: str, ctx: WorkloadContext) -> bool:
    """True when some sargable filter column is indexed (narrow footprint)."""
    for pred in ir.where_predicates:
        if not pred.sargable or pred.column is None or pred.value_kind == "column":
            continue
        if ctx.is_indexed(table, pred.column.name):
            return True
    return False


@register_pass
class LockConflictPass(AdvisoryPass):
    pass_id = "lock-conflict"
    description = (
        "Opposite lock-acquisition orders (deadlock risk) and hot tables "
        "with several broad-footprint writers."
    )

    @staticmethod
    def _takes_locks(ir: StatementIR) -> bool:
        return ir.locking or ir.kind in _WRITE_KINDS

    def run(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        yield from self._lock_order_cycles(ctx)
        yield from self._write_write_edges(ctx)

    def _lock_order_cycles(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        # Directed edge (a, b): some locking statement acquires locks on
        # table a before table b.  Opposite edges from *different*
        # templates are the classic two-session deadlock.
        edges: dict[tuple[str, str], list[str]] = {}
        calls: dict[str, float] = {}
        for fp in ctx.templates:
            if not self._takes_locks(fp.ir):
                continue
            order = _distinct_tables(fp.ir)
            calls[fp.sql_id] = fp.weight.calls
            for a, b in zip(order, order[1:]):
                edges.setdefault((a, b), []).append(fp.sql_id)
        reported: set[tuple[str, str]] = set()
        for (a, b) in sorted(edges):
            if a == b or (b, a) not in edges:
                continue
            pair = (min(a, b), max(a, b))
            if pair in reported:
                continue
            reported.add(pair)
            sql_ids = tuple(sorted(set(edges[(a, b)]) | set(edges[(b, a)])))
            if len(sql_ids) < 2:
                continue
            total_calls = sum(calls.get(s, 0.0) for s in sql_ids)
            hot = pair[0] in ctx.hot_tables or pair[1] in ctx.hot_tables
            yield Advisory(
                advisor=self.pass_id,
                severity=Severity.CRITICAL if hot else Severity.HIGH,
                table=pair[0],
                tables=pair,
                sql_ids=sql_ids,
                score=total_calls,
                message=f"{len(sql_ids)} templates lock {pair[0]} and {pair[1]} "
                        "in opposite orders; concurrent executions can deadlock",
                suggestion=f"acquire locks in one fixed order "
                           f"({pair[0]} before {pair[1]}) in every transaction",
                evidence={
                    "tables": f"{pair[0]}<->{pair[1]}",
                    "calls": round(total_calls, 1),
                },
            )

    def _write_write_edges(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        groups: dict[str, list[TemplateFootprint]] = {}
        for fp in ctx.templates:
            if fp.ir.kind not in _WRITE_KINDS:
                continue
            tables = _distinct_tables(fp.ir)
            if len(tables) != 1:
                continue  # multi-table writes feed the cycle detector instead
            table = tables[0]
            if fp.ir.has_where and (
                not ctx.knows_table(table) or _index_backed(fp.ir, table, ctx)
            ):
                # Index-backed writes lock few rows; without schema
                # metadata we assume the filter is backed rather than
                # accuse a bounded writer of a broad footprint.
                continue
            groups.setdefault(table, []).append(fp)
        for table in sorted(groups):
            group = groups[table]
            if len(group) < 2 or table not in ctx.hot_tables:
                continue
            total_calls = sum(fp.weight.calls for fp in group)
            if total_calls < ctx.config.min_conflict_calls:
                continue
            unbounded = any(not fp.ir.has_where for fp in group)
            sql_ids = tuple(sorted(fp.sql_id for fp in group))
            yield Advisory(
                advisor=self.pass_id,
                severity=Severity.CRITICAL if unbounded else Severity.HIGH,
                table=table,
                tables=(table,),
                sql_ids=sql_ids,
                score=total_calls,
                message=f"{len(group)} broad-footprint writers contend on hot "
                        f"table {table}; their row locks overlap and serialize "
                        "under load",
                suggestion="narrow each writer with an indexed filter, or "
                           "route the writes through one queue",
                evidence={
                    "writers": len(group),
                    "calls": round(total_calls, 1),
                    "unbounded": unbounded,
                },
            )


@register_pass
class IndexAdvisorPass(AdvisoryPass):
    pass_id = "index-advisor"
    description = (
        "Candidate single/composite indexes scored by traffic-weighted "
        "avoided scan rows, prefix-subsumed candidates deduplicated."
    )

    _EQ_OPS = ("=", "<=>")
    _RANGE_OPS = ("<", ">", "<=", ">=", "between", "in")

    def run(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        # (table, columns) -> accumulated benefit + contributing templates.
        scores: dict[tuple[str, tuple[str, ...]], float] = {}
        members: dict[tuple[str, tuple[str, ...]], list[str]] = {}
        per_call: dict[tuple[str, tuple[str, ...]], float] = {}
        for fp in ctx.templates:
            candidate = self._candidate(fp.ir, ctx)
            if candidate is None:
                continue
            table, columns = candidate
            rows_per_call = fp.weight.rows_per_call
            if rows_per_call <= 0:
                rows_per_call = float(ctx.table_rows(table) or 0)
            avoided = max(rows_per_call - ctx.config.index_target_rows, 0.0)
            benefit = fp.weight.calls * avoided
            if benefit < ctx.config.min_index_benefit:
                continue
            key = (table, columns)
            scores[key] = scores.get(key, 0.0) + benefit
            members.setdefault(key, []).append(fp.sql_id)
            per_call[key] = max(per_call.get(key, 0.0), rows_per_call)
        for key, score, sql_ids in self._dedup_prefixes(scores, members, per_call):
            table, columns = key
            cols = ", ".join(columns)
            ratio = score / max(ctx.config.min_index_benefit, 1.0)
            severity = Severity.WARNING
            if ratio >= 10.0:
                severity = Severity.HIGH
            if ratio >= 100.0:
                severity = Severity.CRITICAL
            name = f"idx_{table}_{'_'.join(columns)}"
            yield Advisory(
                advisor=self.pass_id,
                severity=severity,
                table=table,
                tables=(table,),
                sql_ids=tuple(sorted(set(sql_ids))),
                score=score,
                message=f"an index on {table} ({cols}) would avoid ~{score:,.0f} "
                        "examined rows over the window; no existing index serves "
                        "these predicates",
                suggestion=f"CREATE INDEX {name} ON {table} ({cols})",
                evidence={
                    "columns": ",".join(columns),
                    "estimated_avoided_rows": round(score, 1),
                    "rows_per_call": round(per_call.get(key, 0.0), 1),
                    "templates": len(set(sql_ids)),
                },
            )

    def _candidate(
        self, ir: StatementIR, ctx: WorkloadContext
    ) -> tuple[str, tuple[str, ...]] | None:
        if ir.kind not in _SCAN_KINDS or not ir.has_where:
            return None
        tables = _distinct_tables(ir)
        if len(tables) != 1:
            return None
        table = tables[0]
        if not ctx.knows_table(table):
            return None  # cannot rule out an existing index without schema
        eq: list[str] = []
        ranges: list[str] = []
        for pred in ir.where_predicates:
            if not pred.sargable or pred.column is None:
                continue
            if pred.value_kind == "column" or pred.func or pred.arith or pred.negated:
                continue
            column = pred.column.name
            if ctx.is_indexed(table, column):
                return None  # an existing index already backs this access
            if pred.op in self._EQ_OPS and column not in eq:
                eq.append(column)
            elif pred.op in self._RANGE_OPS and column not in ranges:
                ranges.append(column)
        # Composite shape: equality columns first (sorted for a canonical
        # form), then at most one range column as the trailing key part.
        columns = tuple(sorted(eq))
        if ranges:
            columns += (sorted(ranges)[0],)
        if not columns or ctx.covered_by_existing(table, columns):
            return None
        return table, columns

    @staticmethod
    def _dedup_prefixes(
        scores: dict[tuple[str, tuple[str, ...]], float],
        members: dict[tuple[str, tuple[str, ...]], list[str]],
        per_call: dict[tuple[str, tuple[str, ...]], float],
    ) -> list[tuple[tuple[str, tuple[str, ...]], float, list[str]]]:
        """Fold candidates that are a prefix of a wider candidate on the
        same table into the wider one (one index serves both)."""
        keys = sorted(scores)
        absorbed: set[tuple[str, tuple[str, ...]]] = set()
        for key in keys:
            table, columns = key
            hosts = [
                k for k in keys
                if k != key and k not in absorbed and k[0] == table
                and len(k[1]) > len(columns) and k[1][: len(columns)] == columns
            ]
            if not hosts:
                continue
            host = max(hosts, key=lambda k: (scores[k], k))
            scores[host] += scores[key]
            members[host].extend(members[key])
            per_call[host] = max(per_call.get(host, 0.0), per_call.get(key, 0.0))
            absorbed.add(key)
        return [
            (key, scores[key], members[key])
            for key in keys
            if key not in absorbed
        ]


@register_pass
class JoinFanoutPass(AdvisoryPass):
    pass_id = "join-fanout"
    description = (
        "Cartesian-prone join graphs and unbounded fan-out across "
        "templates sharing hot tables."
    )

    def run(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        yield from self._cartesian_joins(ctx)
        yield from self._unbounded_fanout(ctx)

    @staticmethod
    def _has_cross_table_equality(ir: StatementIR) -> bool:
        for pred in ir.predicates:
            if pred.column is None or pred.value_column is None:
                continue
            left = ir.resolve(pred.column.qualifier) if pred.column.qualifier else ""
            right = (
                ir.resolve(pred.value_column.qualifier)
                if pred.value_column.qualifier
                else ""
            )
            if left and right and left != right:
                return True
        return False

    def _cartesian_joins(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        for fp in ctx.templates:
            ir = fp.ir
            if ir.kind is not StatementKind.SELECT:
                continue
            tables = _distinct_tables(ir)
            if len(tables) < 2 or ir.join_constraints > 0:
                continue
            if self._has_cross_table_equality(ir):
                continue
            product = 1.0
            for t in tables:
                product *= float(max(ctx.table_rows(t) or 1, 1))
            score = fp.weight.calls * product
            yield Advisory(
                advisor=self.pass_id,
                severity=Severity.CRITICAL
                if any(t in ctx.hot_tables for t in tables)
                else Severity.HIGH,
                table=tables[0],
                tables=tables,
                sql_ids=(fp.sql_id,),
                score=score,
                message=f"{len(tables)} tables ({', '.join(tables)}) join with "
                        f"no constraint; the result fans out to ~{product:.1e} "
                        "row combinations",
                suggestion="add the join condition, or split the query",
                evidence={
                    "tables": ",".join(tables),
                    "row_product": product,
                    "calls": round(fp.weight.calls, 1),
                },
            )

    def _unbounded_fanout(self, ctx: WorkloadContext) -> Iterator[Advisory]:
        groups: dict[str, list[TemplateFootprint]] = {}
        for fp in ctx.templates:
            ir = fp.ir
            if ir.kind not in _SCAN_KINDS or ir.has_where:
                continue
            if ir.kind is StatementKind.SELECT and ir.has_limit:
                continue
            tables = _distinct_tables(ir)
            if len(tables) != 1 or tables[0] not in ctx.hot_tables:
                continue
            if fp.weight.calls <= 0:
                continue
            groups.setdefault(tables[0], []).append(fp)
        for table in sorted(groups):
            group = groups[table]
            total_calls = sum(fp.weight.calls for fp in group)
            rows = ctx.table_rows(table)
            sql_ids = tuple(sorted(fp.sql_id for fp in group))
            size = f" ({rows:,} rows)" if rows is not None else ""
            yield Advisory(
                advisor=self.pass_id,
                severity=Severity.HIGH,
                table=table,
                tables=(table,),
                sql_ids=sql_ids,
                score=total_calls * float(rows or 1),
                message=f"{len(group)} template(s) scan hot table {table}{size} "
                        "with no WHERE and no LIMIT; every call touches the "
                        "whole table",
                suggestion="add a filter or paginate with a key range + LIMIT",
                evidence={
                    "templates": len(group),
                    "calls": round(total_calls, 1),
                },
            )
