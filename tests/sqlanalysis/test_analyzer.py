"""Tests for the SqlAnalyzer facade (totality, caching, telemetry)."""

from repro.dbsim import Schema, Table, TemplateSpec
from repro.sqlanalysis import AnalyzerConfig, Finding, LintRule, Severity, SqlAnalyzer
from repro.sqltemplate import StatementKind
from repro.sqltemplate.catalog import TemplateInfo
from repro.telemetry import MetricsRegistry


class BrokenRule(LintRule):
    rule_id = "broken"
    description = "always raises"

    def check(self, ir, ctx):
        raise RuntimeError("boom")
        yield  # pragma: no cover


def make_info(sql_id="S1", template="SELECT * FROM t WHERE k = ?", exemplar=""):
    return TemplateInfo(
        sql_id=sql_id,
        template=template,
        kind=StatementKind.SELECT,
        tables=("t",),
        exemplar=exemplar,
    )


class TestTotality:
    def test_broken_rule_swallowed_and_counted(self):
        registry = MetricsRegistry()
        analyzer = SqlAnalyzer(rules=[BrokenRule()], registry=registry)
        assert analyzer.analyze_statement("SELECT * FROM t") == []
        counter = registry.counter("sqlanalysis_failures_total", where="broken")
        assert counter.value == 1

    def test_garbage_input_returns_list(self):
        analyzer = SqlAnalyzer()
        for sql in ("", "((((", "'; DROP TABLE t; --", "\x00\x01", "SELECT" * 200):
            assert isinstance(analyzer.analyze_statement(sql), list)


class TestFindings:
    def test_sql_id_attached_and_sorted_by_severity(self):
        analyzer = SqlAnalyzer(hot_tables={"t"})
        findings = analyzer.analyze_statement(
            "SELECT * FROM t WHERE LOWER(c) = 'x' FOR UPDATE", sql_id="Q1"
        )
        assert findings and all(f.sql_id == "Q1" for f in findings)
        severities = [int(f.severity) for f in findings]
        assert severities == sorted(severities, reverse=True)

    def test_findings_counter_incremented(self):
        registry = MetricsRegistry()
        analyzer = SqlAnalyzer(registry=registry)
        analyzer.analyze_statement("SELECT * FROM t WHERE k = 1")
        counter = registry.counter("sqlanalysis_findings_total", rule="select-star")
        assert counter.value == 1

    def test_schema_feeds_missing_index(self):
        schema = Schema([Table("t", row_count=500_000)])
        analyzer = SqlAnalyzer(schema=schema)
        rules = {f.rule for f in analyzer.analyze_statement("SELECT c FROM t WHERE k = 1")}
        assert "missing-index" in rules


class TestCache:
    def test_repeat_analysis_hits_cache(self):
        analyzer = SqlAnalyzer()
        first = analyzer.analyze_statement("SELECT * FROM t", sql_id="A")
        assert analyzer._cache  # populated
        second = analyzer.analyze_statement("SELECT * FROM t", sql_id="A")
        assert first == second

    def test_cache_bounded(self):
        analyzer = SqlAnalyzer(config=AnalyzerConfig(max_cache_entries=4))
        for i in range(10):
            analyzer.analyze_statement(f"SELECT c{i} FROM t WHERE k = 1")
        assert len(analyzer._cache) <= 4


class TestTemplateEntryPoints:
    def test_analyze_template_prefers_exemplar(self):
        # The template hides the leading wildcard as a plain `?`; the
        # exemplar preserves the literal, so the wildcard rule only fires
        # when the exemplar is used.
        info = make_info(
            template="SELECT c FROM t WHERE name LIKE ?",
            exemplar="SELECT c FROM t WHERE name LIKE '%abc'",
        )
        findings = SqlAnalyzer().analyze_template(info)
        assert any(f.rule == "leading-wildcard-like" for f in findings)

    def test_analyze_template_falls_back_to_template(self):
        info = make_info(template="SELECT * FROM t WHERE k = ?", exemplar="")
        findings = SqlAnalyzer().analyze_template(info)
        assert any(f.rule == "select-star" for f in findings)

    def test_analyze_spec(self):
        spec = TemplateSpec(
            sql_id="S9",
            template="SELECT * FROM t WHERE k = ?",
            kind=StatementKind.SELECT,
            tables=("t",),
        )
        findings = SqlAnalyzer().analyze_spec(spec)
        assert findings and findings[0].sql_id == "S9"


class TestRuleOverride:
    def test_custom_rule_set(self):
        class OnlyStar(LintRule):
            rule_id = "only-star"

            def check(self, ir, ctx):
                if ir.select_star:
                    yield Finding(
                        rule=self.rule_id, severity=Severity.INFO, message="star"
                    )

        analyzer = SqlAnalyzer(rules=[OnlyStar()])
        findings = analyzer.analyze_statement("SELECT * FROM t")
        assert [f.rule for f in findings] == ["only-star"]


class TestIrCache:
    def test_parse_once_per_text(self):
        analyzer = SqlAnalyzer()
        ir = analyzer.parse("SELECT * FROM t")
        assert analyzer.parse("SELECT * FROM t") is ir
        analyzer.analyze_statement("SELECT * FROM t", sql_id="A")
        assert analyzer._ir_cache == {"SELECT * FROM t": ir}

    def test_ir_cache_bounded(self):
        analyzer = SqlAnalyzer(config=AnalyzerConfig(max_cache_entries=4))
        for i in range(10):
            analyzer.parse(f"SELECT c{i} FROM t WHERE k = 1")
        assert len(analyzer._ir_cache) <= 4
