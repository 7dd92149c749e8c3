"""The engine's SQL text path: one lex per statement, one IR per template.

An engine fingerprints a statement when it registers it, and analyses
and advises on it during diagnoses and health sweeps.  Fingerprinting
lexes the statement once; the analyzer parses it once (one more lex)
into an IR the workload advisor reuses.
"""

import importlib

import numpy as np

from repro.collection import Broker
from repro.dbsim import SecondBatch
from repro.fleet import InstanceDiagnosisEngine
from repro.health import HealthSweeper
from repro.sqltemplate import fingerprint
from repro.telemetry import MetricsRegistry

#: The modules that lex (the package re-exports the function
#: ``fingerprint`` under its module's name, hence ``import_module``).
LEXING_MODULES = tuple(
    importlib.import_module(name)
    for name in ("repro.sqltemplate.fingerprint", "repro.sqlanalysis.ir")
)

IN_LIST_40 = (
    "SELECT c0 FROM orders WHERE id IN ("
    + ", ".join(str(v) for v in range(40))
    + ")"
)


def _engine() -> InstanceDiagnosisEngine:
    registry = MetricsRegistry()
    return InstanceDiagnosisEngine(Broker(registry=registry), "db-t", registry=registry)


def _count_lexes(monkeypatch) -> list[str]:
    """Record every ``tokenize`` call made by the modules that import it."""
    calls: list[str] = []
    for module in LEXING_MODULES:
        original = module.tokenize

        def counting(sql, _original=original):
            calls.append(sql)
            return _original(sql)

        monkeypatch.setattr(module, "tokenize", counting)
    return calls


def test_register_analyse_advise_sweep_lexes_at_most_twice(monkeypatch):
    engine = _engine()
    sql = "UPDATE orders SET c1 = 2 WHERE LOWER(c8) = 'x'"
    sql_id = fingerprint(sql).sql_id
    engine.logstore.ingest_batch(
        SecondBatch(
            sql_id,
            np.array([60_000, 61_000], dtype=np.int64),
            np.array([5.0, 6.0]),
            np.array([10.0, 12.0]),
        )
    )
    calls = _count_lexes(monkeypatch)

    engine.register_statement(sql)
    info = engine.catalog[sql_id]
    engine.analyzer.analyze_template(info)
    engine.advisor.analyze([info])
    context = HealthSweeper(registry=engine.registry).context_for_engine(engine, now=120)

    assert sql_id in context.analysis  # the sweep analysed the template
    assert len(calls) <= 2, calls


def test_registration_keeps_the_exemplar_for_static_analysis():
    engine = _engine()
    engine.register_statement(IN_LIST_40)
    info = engine.catalog[fingerprint(IN_LIST_40).sql_id]
    assert info.exemplar == IN_LIST_40
    rules = {f.rule for f in engine.analyzer.analyze_template(info)}
    assert "large-in-list" in rules


def test_advisor_and_analyzer_share_the_ir():
    seen = []

    class Recorder:
        pass_id = "recorder"

        def run(self, ctx):
            seen.extend(fp.ir for fp in ctx.templates)
            return []

    engine = _engine()
    engine.register_statement(IN_LIST_40)
    info = engine.catalog[fingerprint(IN_LIST_40).sql_id]
    engine.analyzer.analyze_template(info)
    engine.advisor.passes = (Recorder(),)
    engine.advisor.analyze([info])
    assert len(seen) == 1
    assert seen[0] is engine.analyzer.parse(IN_LIST_40)
