"""The engine attaches static-analysis findings to each diagnosis."""

from repro.collection import Broker
from repro.core import PinSQL
from repro.fleet import InstanceDiagnosisEngine


def _engine_with_catalog(labeled):
    engine = InstanceDiagnosisEngine(Broker(), instance_id="db-t")
    engine.register_catalog(labeled.case.catalog)
    return engine


class TestTemplateFindings:
    def test_root_cause_template_gets_findings(self, poor_sql_case):
        engine = _engine_with_catalog(poor_sql_case)
        result = PinSQL().analyze(poor_sql_case.case)
        findings = engine._template_findings(result)
        root = result.rsql_ids[0]
        assert root in findings
        rules = {f.rule for f in findings[root]}
        # inject_poor_sql plants SELECT * plus a function-wrapped filter.
        assert "non-sargable-function" in rules
        assert all(f.sql_id == root for f in findings[root])

    def test_exemplars_survive_catalog_merge(self, poor_sql_case):
        engine = _engine_with_catalog(poor_sql_case)
        root = next(iter(poor_sql_case.r_sqls))
        merged = engine.catalog.get(root)
        original = poor_sql_case.case.catalog.get(root)
        assert merged.exemplar == original.exemplar

    def test_unknown_templates_are_skipped(self, poor_sql_case):
        engine = InstanceDiagnosisEngine(Broker(), instance_id="db-t")
        result = PinSQL().analyze(poor_sql_case.case)  # catalog never registered
        assert engine._template_findings(result) == {}

    def test_clean_templates_omitted_from_map(self, poor_sql_case):
        engine = _engine_with_catalog(poor_sql_case)
        result = PinSQL().analyze(poor_sql_case.case)
        findings = engine._template_findings(result)
        for sql_id, template_findings in findings.items():
            assert template_findings, f"{sql_id} mapped to an empty tuple"
