"""Anti-pattern rules: a pluggable registry producing explainable findings.

Each rule inspects one :class:`~repro.sqlanalysis.ir.StatementIR` plus an
:class:`AnalysisContext` (schema/index metadata, execution specs, hot
tables) and yields :class:`Finding`\\ s — severity-scored, with a
message that explains the mechanism and a concrete suggestion.  Rules
register themselves with :func:`register_rule`; the analyzer runs
whatever the registry holds, so downstream code (and tests) can add
site-specific checks without touching this module.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Iterable, Iterator, Mapping

from repro.dbsim.spec import TemplateSpec
from repro.dbsim.tables import Schema
from repro.jsonrecord import JsonRecord, decode
from repro.sqltemplate.fingerprint import StatementKind
from repro.sqlanalysis.ir import StatementIR

__all__ = [
    "Severity",
    "Finding",
    "AnalysisContext",
    "LintRule",
    "register_rule",
    "default_rules",
    "rule_ids",
]


class Severity(enum.IntEnum):
    """Finding severity; integer order supports threshold comparisons."""

    INFO = 10
    WARNING = 20
    HIGH = 30
    CRITICAL = 40

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Severity":
        return cls[label.upper()]


@dataclass(frozen=True)
class Finding(JsonRecord):
    """One explainable anti-pattern finding on one template."""

    rule: str
    severity: Severity
    message: str
    sql_id: str = ""
    table: str = ""
    column: str = ""
    suggestion: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Finding:
        return decode(cls, {"severity": "info", "message": "", **data})


@dataclass(frozen=True)
class AnalysisContext:
    """What the rules know beyond the statement text."""

    schema: Schema | None = None
    specs: Mapping[str, TemplateSpec] = field(default_factory=dict)
    hot_tables: frozenset[str] = frozenset()
    large_table_rows: int = 100_000
    in_list_threshold: int = 16
    or_chain_threshold: int = 8

    def table_rows(self, name: str) -> int | None:
        if self.schema is None:
            return None
        table = self.schema.get(name)
        return None if table is None else table.row_count

    def is_indexed(self, table: str, column: str) -> bool | None:
        """True/False when the schema knows the table, None when it doesn't."""
        if self.schema is None:
            return None
        tab = self.schema.get(table)
        return None if tab is None else tab.has_index(column)


class LintRule(abc.ABC):
    """Base class for anti-pattern checks."""

    rule_id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        """Yield findings for one statement (``sql_id`` filled by the analyzer)."""

    def _primary_table(self, ir: StatementIR) -> str:
        names = ir.table_names
        return names[0] if names else ""


_REGISTRY: dict[str, LintRule] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule (by ``rule_id``) to the registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define a rule_id")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def default_rules() -> tuple[LintRule, ...]:
    """The registered rules, in registration order."""
    return tuple(_REGISTRY.values())


def rule_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _scale_severity(base: Severity, rows: int | None, large: int) -> Severity:
    """Bump severity one step on large tables, two steps past 10x large."""
    if rows is None:
        return base
    bumped = int(base)
    if rows >= large:
        bumped += 10
    if rows >= 10 * large:
        bumped += 10
    return Severity(min(bumped, int(Severity.CRITICAL)))


_ANALYZABLE = (StatementKind.SELECT, StatementKind.UPDATE, StatementKind.DELETE)


@register_rule
class SelectStarRule(LintRule):
    rule_id = "select-star"
    description = "SELECT * fetches every column, defeating covering indexes."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind is StatementKind.SELECT and ir.select_star:
            table = self._primary_table(ir)
            yield Finding(
                rule=self.rule_id,
                severity=Severity.INFO,
                table=table,
                message="SELECT * returns every column; the row payload grows "
                        "with schema changes and no covering index can serve it",
                suggestion="select only the columns the caller reads",
            )


@register_rule
class NonSargableFunctionRule(LintRule):
    rule_id = "non-sargable-function"
    description = "A function or arithmetic on a filtered column disables index use."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind not in _ANALYZABLE:
            return
        table = self._primary_table(ir)
        rows = ctx.table_rows(table) if table else None
        for pred in ir.where_predicates:
            if pred.column is None or not (pred.func or pred.arith):
                continue
            wrapped = f"{pred.func}({pred.column.name})" if pred.func else (
                f"arithmetic on {pred.column.name}"
            )
            yield Finding(
                rule=self.rule_id,
                severity=_scale_severity(Severity.WARNING, rows, ctx.large_table_rows),
                table=table,
                column=pred.column.name,
                message=f"predicate applies {wrapped}; the optimizer cannot use "
                        f"an index on {pred.column.name} and must evaluate every row",
                suggestion="rewrite the predicate so the bare column is compared "
                           "(move the function to the constant side)",
            )


@register_rule
class LeadingWildcardLikeRule(LintRule):
    rule_id = "leading-wildcard-like"
    description = "LIKE '%...' cannot seek an index; it scans the whole column."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind not in _ANALYZABLE:
            return
        table = self._primary_table(ir)
        rows = ctx.table_rows(table) if table else None
        for pred in ir.where_predicates:
            if pred.op != "like" or pred.column is None:
                continue
            body = pred.value_text[1:] if pred.value_text[:1] in "'\"" else pred.value_text
            if not body.startswith("%"):
                continue
            yield Finding(
                rule=self.rule_id,
                severity=_scale_severity(Severity.WARNING, rows, ctx.large_table_rows),
                table=table,
                column=pred.column.name,
                message=f"LIKE pattern on {pred.column.name} starts with '%'; a "
                        "B-tree index cannot seek it, forcing a full scan",
                suggestion="anchor the pattern (prefix search) or use a "
                           "full-text/trigram index",
            )


@register_rule
class ImplicitConversionRule(LintRule):
    rule_id = "implicit-conversion"
    description = "Comparing a column to a quoted number converts every row."

    _OPS = ("=", "<=>", "<", ">", "<=", ">=", "!=", "<>", "between")

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind not in _ANALYZABLE:
            return
        table = self._primary_table(ir)
        for pred in ir.where_predicates:
            if pred.column is None or pred.func or pred.op not in self._OPS:
                continue
            if pred.value_kind != "string":
                continue
            body = pred.value_text.strip("'\"")
            if not body or not body.replace(".", "", 1).isdigit():
                continue
            yield Finding(
                rule=self.rule_id,
                severity=Severity.WARNING,
                table=table,
                column=pred.column.name,
                message=f"{pred.column.name} is compared to quoted number "
                        f"{pred.value_text}; if the column is numeric the engine "
                        "casts per row and skips the index",
                suggestion="pass the literal with the column's native type",
            )


@register_rule
class MissingIndexRule(LintRule):
    rule_id = "missing-index"
    description = "No sargable filter column is indexed on a large table."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind not in _ANALYZABLE or not ir.has_where or ctx.schema is None:
            return
        names = ir.table_names
        if len(set(names)) != 1:
            return  # multi-table attribution is the join rules' job
        table = names[0]
        rows = ctx.table_rows(table)
        if rows is None or rows < ctx.large_table_rows:
            return
        candidates = [
            p.column.name
            for p in ir.where_predicates
            if p.sargable and p.column is not None and p.value_kind != "column"
        ]
        if not candidates:
            return
        if any(ctx.is_indexed(table, c) for c in candidates):
            return
        column = candidates[0]
        yield Finding(
            rule=self.rule_id,
            severity=_scale_severity(Severity.WARNING, rows, ctx.large_table_rows),
            table=table,
            column=column,
            message=f"none of the filter columns ({', '.join(sorted(set(candidates)))}) "
                    f"is indexed on {table} ({rows:,} rows); every query scans the table",
            suggestion=f"CREATE INDEX idx_{table}_{column} ON {table} ({column})",
        )


@register_rule
class UnboundedScanRule(LintRule):
    rule_id = "unbounded-scan"
    description = "A statement with no WHERE (and no LIMIT) touches the whole table."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind not in _ANALYZABLE or ir.has_where or not ir.table_names:
            return
        if ir.kind is StatementKind.SELECT and ir.has_limit:
            return
        table = self._primary_table(ir)
        rows = ctx.table_rows(table)
        verb = "reads" if ir.kind is StatementKind.SELECT else "rewrites"
        size = f" ({rows:,} rows)" if rows is not None else ""
        yield Finding(
            rule=self.rule_id,
            severity=_scale_severity(Severity.WARNING, rows, ctx.large_table_rows),
            table=table,
            message=f"no WHERE clause: the statement {verb} all of {table}{size}",
            suggestion="add a filter, or chunk the job with a key range + LIMIT",
        )


@register_rule
class CartesianJoinRule(LintRule):
    rule_id = "cartesian-join"
    description = "Multiple tables with no join condition multiply row counts."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind is not StatementKind.SELECT:
            return
        names = ir.table_names
        if len(names) < 2 or ir.join_constraints > 0:
            return
        # A WHERE-clause equality across two different tables still
        # constrains the join (old-style comma join syntax).
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
                return
        sizes = [ctx.table_rows(t) for t in names]
        known = [s for s in sizes if s is not None]
        product = ""
        if len(known) == len(sizes) and known:
            total = 1
            for s in known:
                total *= max(s, 1)
            product = f" (~{total:.1e} row combinations)"
        yield Finding(
            rule=self.rule_id,
            severity=Severity.HIGH,
            table=names[0],
            message=f"{len(names)} tables ({', '.join(names)}) are joined with no "
                    f"ON/USING clause or cross-table equality{product}",
            suggestion="add the join condition, or split the query",
        )


@register_rule
class LargeInListRule(LintRule):
    rule_id = "large-in-list"
    description = "Huge IN lists blow up parse/plan cost and range fan-out."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind not in _ANALYZABLE:
            return
        table = self._primary_table(ir)
        for pred in ir.where_predicates:
            if pred.op != "in" or pred.in_list_size < ctx.in_list_threshold:
                continue
            column = pred.column.name if pred.column is not None else ""
            yield Finding(
                rule=self.rule_id,
                severity=Severity.WARNING,
                table=table,
                column=column,
                message=f"IN list with {pred.in_list_size} values "
                        f"(threshold {ctx.in_list_threshold}); the optimizer fans "
                        "out one range per value and the statement cache churns",
                suggestion="batch through a temporary table or join against the "
                           "id source instead",
            )


@register_rule
class LongOrChainRule(LintRule):
    rule_id = "long-or-chain"
    description = "Long OR chains defeat range optimization."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        if ir.kind not in _ANALYZABLE:
            return
        if ir.or_count < ctx.or_chain_threshold:
            return
        yield Finding(
            rule=self.rule_id,
            severity=Severity.WARNING,
            table=self._primary_table(ir),
            message=f"predicate chains {ir.or_count + 1} alternatives with OR "
                    f"(threshold {ctx.or_chain_threshold}); the optimizer often "
                    "abandons index merging and scans",
            suggestion="rewrite as IN (...) over one column, or UNION ALL of "
                       "indexed branches",
        )


@register_rule
class LockFootprintRule(LintRule):
    rule_id = "lock-footprint"
    description = "Locking reads and unbounded writes hold locks others wait on."

    def check(self, ir: StatementIR, ctx: AnalysisContext) -> Iterator[Finding]:
        table = self._primary_table(ir)
        hot = table in ctx.hot_tables
        if ir.kind is StatementKind.SELECT and ir.locking:
            clause = "FOR UPDATE" if ir.for_update else "LOCK IN SHARE MODE"
            yield Finding(
                rule=self.rule_id,
                severity=Severity.HIGH if hot else Severity.WARNING,
                table=table,
                message=f"locking read ({clause}) on "
                        f"{'hot table ' if hot else ''}{table}: every matched row "
                        "is locked until commit, blocking concurrent writers",
                suggestion="read without the locking clause, or keep the "
                           "transaction that needs it short",
            )
        if ir.kind in (StatementKind.UPDATE, StatementKind.DELETE) and not ir.has_where:
            yield Finding(
                rule=self.rule_id,
                severity=Severity.CRITICAL if hot else Severity.HIGH,
                table=table,
                message=f"{ir.kind.value.upper()} without WHERE locks every row "
                        f"of {'hot table ' if hot else ''}{table} in one transaction",
                suggestion="chunk the write by key range so locks stay small",
            )


def attach_sql_id(findings: Iterable[Finding], sql_id: str) -> list[Finding]:
    """Return findings with ``sql_id`` filled in (frozen-safe)."""
    return [
        replace(f, sql_id=sql_id) if sql_id and not f.sql_id else f
        for f in findings
    ]
