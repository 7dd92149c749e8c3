"""The analyzer facade: statements/templates/catalogs in, findings out.

``SqlAnalyzer`` is the one entry point the rest of the stack uses.  It
parses, runs the rule registry, attaches ``sql_id``\\ s, sorts by
severity and **never raises** — a broken rule or unparseable statement
degrades to an empty finding list plus a telemetry counter, because the
analyzer rides inside the diagnosis loop where an exception would cost
an incident.

It also owns the IR cache: :meth:`SqlAnalyzer.parse` lexes and parses
each distinct statement text once per analyzer, and a
:class:`~repro.sqlanalysis.workload.WorkloadAnalyzer` built on the same
analyzer parses through it, so one engine holds one IR per template.
Both caches are bounded by ``AnalyzerConfig.max_cache_entries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.dbsim.spec import TemplateSpec
from repro.dbsim.tables import Schema
from repro.sqlanalysis.ir import StatementIR, parse_statement
from repro.sqlanalysis.rules import (
    AnalysisContext,
    Finding,
    LintRule,
    attach_sql_id,
    default_rules,
)
from repro.sqltemplate.catalog import TemplateInfo
from repro.telemetry import MetricsRegistry, get_logger, get_registry

__all__ = ["AnalyzerConfig", "SqlAnalyzer"]

_log = get_logger("sqlanalysis")


@dataclass(frozen=True)
class AnalyzerConfig:
    """Tunable thresholds for the rule context."""

    large_table_rows: int = 100_000
    in_list_threshold: int = 16
    or_chain_threshold: int = 8
    max_cache_entries: int = 4096


class SqlAnalyzer:
    """Runs the anti-pattern rules over statements, templates or catalogs.

    Parameters
    ----------
    schema:
        Index/row-count metadata for the missing-index and scan rules;
        ``None`` degrades those rules gracefully.
    specs:
        ``sql_id -> TemplateSpec`` execution profiles (exemplar source).
    hot_tables:
        Tables carrying the most traffic; lock findings on them score
        higher.
    rules:
        Override the rule set (defaults to the full registry).
    """

    def __init__(
        self,
        schema: Schema | None = None,
        specs: Mapping[str, TemplateSpec] | None = None,
        hot_tables: Iterable[str] = (),
        config: AnalyzerConfig | None = None,
        rules: Iterable[LintRule] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or AnalyzerConfig()
        self.context = AnalysisContext(
            schema=schema,
            specs=dict(specs or {}),
            hot_tables=frozenset(hot_tables),
            large_table_rows=self.config.large_table_rows,
            in_list_threshold=self.config.in_list_threshold,
            or_chain_threshold=self.config.or_chain_threshold,
        )
        self.rules: tuple[LintRule, ...] = (
            tuple(rules) if rules is not None else default_rules()
        )
        self.registry = registry or get_registry()
        self._cache: dict[tuple[str, str], tuple[Finding, ...]] = {}
        self._ir_cache: dict[str, StatementIR] = {}

    # ------------------------------------------------------------------
    def parse(self, sql: str) -> StatementIR:
        """The IR of ``sql``, parsed once per distinct text; never raises."""
        ir = self._ir_cache.get(sql)
        if ir is None:
            ir = parse_statement(sql)
            if len(self._ir_cache) >= self.config.max_cache_entries:
                self._ir_cache.clear()
            self._ir_cache[sql] = ir
        return ir

    def analyze_statement(self, sql: str, sql_id: str = "") -> list[Finding]:
        """All findings for one statement, most severe first; never raises."""
        key = (sql_id, sql)
        cached = self._cache.get(key)
        if cached is not None:
            return list(cached)
        findings: list[Finding] = []
        try:
            ir = self.parse(sql)
            for rule in self.rules:
                try:
                    findings.extend(rule.check(ir, self.context))
                except Exception as exc:
                    self._count_failure(rule.rule_id, exc)
            findings = attach_sql_id(findings, sql_id)
            findings.sort(key=lambda f: (-int(f.severity), f.rule))
        except Exception as exc:  # pragma: no cover - parse_statement is total
            self._count_failure("parse", exc)
            findings = []
        for f in findings:
            self.registry.counter(
                "sqlanalysis_findings_total",
                help="Anti-pattern findings emitted, by rule.",
                rule=f.rule,
            ).inc()
        if len(self._cache) >= self.config.max_cache_entries:
            self._cache.clear()
        self._cache[key] = tuple(findings)
        return findings

    def analyze_template(self, info: TemplateInfo) -> list[Finding]:
        """Findings for a catalog entry (prefers the raw exemplar)."""
        text = info.exemplar or info.template
        return self.analyze_statement(text, sql_id=info.sql_id)

    def analyze_spec(self, spec: TemplateSpec) -> list[Finding]:
        """Findings for a workload execution spec."""
        text = spec.exemplar or spec.template
        return self.analyze_statement(text, sql_id=spec.sql_id)

    # ------------------------------------------------------------------
    def _count_failure(self, where: str, exc: Exception) -> None:
        self.registry.counter(
            "sqlanalysis_failures_total",
            help="Analyzer internal failures swallowed (rule or parse).",
            where=where,
        ).inc()
        _log.warning(
            "sqlanalysis failure swallowed",
            extra={"where": where, "error": type(exc).__name__},
        )
