"""Pinned findings, advisories and template stores of health sweeps.

``golden/sweep_seed7.json`` records one sha256 per finding (over its
check, severity, instance, sql_id, metric, message and evidence), one
per workload advisory each sweep context carried, and one per context's
aggregated template store (every metric of every template, in row
order), each list in emission order.
The run is the CI ``health-smoke`` job's: ``repro fleet-demo
--instances 3 --anomalous 1 --duration 600 --health --record DIR``, the
scheduled sweeps plus the CLI's final one.  The sweeps read the
aggregated template store, the static analyzer and the incident store,
so a change that moves any finding's numbers fails here loudly.

That run fires neither ``rising-rows-examined`` nor
``antipattern-share``, so the golden also pins the findings every
instance-scope check yields on one small synthetic context built with
``conftest.py``'s store builder, where both fire.  Nor does it carry a
workload advisory, so the golden also pins the advisories the sweeper
derives for one synthetic engine (an index candidate and two contending
writers): their scores read the window's ``#execution`` and
``total_examined_rows`` sums, so a sweep that weighs traffic by the wrong
metric fails here.

The tier-1 gate is ``test_sweep_golden.py``.  To check the findings a
CLI run persisted (advisories and stores are not persisted, so only the
findings are compared)::

    python tests/health/sweep_golden.py DIR/health

With no argument the script runs the pinned fleet and the synthetic
context itself and compares everything.  A change that moves them on purpose re-pins
in the same change with :func:`pin` (``python -c "from
tests.health.sweep_golden import pin; pin()"`` from the repository
root) and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Mapping

GOLDEN = Path(__file__).parent / "golden" / "sweep_seed7.json"

#: The run the digests were recorded on (the CI health-smoke fleet).
CONFIG = {"seed": 7, "instances": 3, "anomalous": 1, "duration_s": 600}

#: Finding fields a digest covers (not the sweep id or the stream time).
FINDING_FIELDS = ("check", "severity", "instance_id", "sql_id", "metric", "message", "evidence")


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def finding_digest(finding: Mapping) -> str:
    """sha256 of one finding's pinned fields (its ``to_dict`` form)."""
    return _sha({key: finding[key] for key in FINDING_FIELDS})


def advisory_digest(instance_id: str, now: int, advisory: Mapping) -> str:
    """sha256 of one advisory (its ``to_dict`` form) and the sweep it was in."""
    return _sha({"instance_id": instance_id, "now": now, "advisory": advisory})


def store_digest(instance_id: str, now: int, templates) -> str:
    """sha256 of a sweep context's template store, every series exact."""
    from repro.collection.aggregator import TEMPLATE_METRICS

    series = {
        sql_id: {m: templates.get(sql_id, m).values.tolist() for m in TEMPLATE_METRICS}
        for sql_id in templates.sql_ids
    }
    return _sha({"instance_id": instance_id, "now": now, "sql_ids": templates.sql_ids,
                 "series": series})


def run_sweeps(record_dir: str) -> tuple[list[dict], list[str], list[str]]:
    """Run the pinned fleet; its findings (dicts), advisory and store digests."""
    from repro.cli import _run_fleet
    from repro.health import HealthSweeper

    advisories: list[str] = []
    stores: list[str] = []

    class RecordingSweeper(HealthSweeper):
        def context_for_engine(self, engine, now, telemetry=None):
            ctx = super().context_for_engine(engine, now, telemetry=telemetry)
            advisories.extend(
                advisory_digest(ctx.instance_id, now, a.to_dict())
                for a in ctx.advisories
            )
            if ctx.templates is not None:
                stores.append(store_digest(ctx.instance_id, now, ctx.templates))
            return ctx

    sweeper = RecordingSweeper()
    service, _ = _run_fleet(
        CONFIG["instances"], CONFIG["anomalous"], CONFIG["duration_s"],
        CONFIG["seed"], prune=True, record_dir=record_dir, sweeper=sweeper,
    )
    sweeper.sweep_fleet(service)
    findings = [f.to_dict() for sweep in sweeper.sweeps for f in sweep.findings]
    return findings, advisories, stores


def context_findings() -> list[str]:
    """Digests of the instance checks' findings on the synthetic context:
    a template whose rows/execution creep up, and flagged traffic at a
    60% share."""
    from repro.health import default_checks
    from repro.sqlanalysis import Finding, Severity
    from tests.health.conftest import make_ctx, make_templates, template_series

    ctx = make_ctx(
        templates=make_templates({
            "BAD": template_series(execs_per_s=3.0),
            "SCAN": template_series(rows_start=800.0, rows_end=5_000.0),
        }),
        analysis={"BAD": (Finding(
            rule="unbounded-scan", severity=Severity.HIGH,
            message="no bound", sql_id="BAD",
        ),)},
    )
    return [
        finding_digest(finding.to_dict())
        for check in default_checks() if check.scope == "instance"
        for finding in check.check(ctx)
    ]


def context_advisories() -> list[str]:
    """Digests of the advisories the sweeper derives for a synthetic
    engine: a point read on an unindexed column of a large table, and two
    writers contending on it, each at its own call rate and rows/call."""
    from types import SimpleNamespace

    from repro.dbsim.tables import Schema, Table
    from repro.health import HealthSweeper
    from repro.sqlanalysis.workload import WorkloadAnalyzer
    from repro.sqltemplate import TemplateCatalog, fingerprint
    from repro.telemetry import MetricsRegistry
    from tests.health.conftest import make_templates, template_series

    traffic = {
        "SELECT c2 FROM hot WHERE c5 = 7": template_series(
            execs_per_s=3.0, rows_start=4_000.0, rows_end=6_000.0),
        "UPDATE hot SET c0 = c0 + 1 WHERE LOWER(c8) = 'x'": template_series(
            execs_per_s=2.0, rows_start=50.0, rows_end=60.0),
        "UPDATE hot SET c1 = 2 WHERE UPPER(c9) = 'y'": template_series(
            execs_per_s=0.5, rows_start=80.0, rows_end=90.0),
    }
    catalog = TemplateCatalog()
    series = {}
    for sql, per_metric in traffic.items():
        fp = fingerprint(sql)
        catalog.register_template(fp.sql_id, fp.template, fp.kind, fp.tables, exemplar=sql)
        series[fp.sql_id] = per_metric
    engine = SimpleNamespace(
        instance_id="db-adv",
        catalog=catalog,
        advisor=WorkloadAnalyzer(
            schema=Schema([Table("hot", 2_000_000, {"id"})]),
            registry=MetricsRegistry(),
        ),
    )
    templates = make_templates(series)
    return [
        advisory_digest(engine.instance_id, templates.end, a.to_dict())
        for a in HealthSweeper._advisories_for_engine(engine, templates)
    ]


def digests(
    findings: Iterable[Mapping],
    advisories: list[str] | None = None,
    stores: list[str] | None = None,
    context: list[str] | None = None,
    context_advisories: list[str] | None = None,
) -> dict:
    """The pinned shape: per-check counts and the digest lists."""
    findings = list(findings)
    checks: dict[str, int] = {}
    for finding in findings:
        checks[finding["check"]] = checks.get(finding["check"], 0) + 1
    out = {
        "checks": dict(sorted(checks.items())),
        "findings": [finding_digest(f) for f in findings],
    }
    if advisories is not None:
        out["advisories"] = advisories
    if stores is not None:
        out["stores"] = stores
    if context is not None:
        out["context"] = context
    if context_advisories is not None:
        out["context_advisories"] = context_advisories
    return out


def mismatches(actual: Mapping, golden: Mapping) -> list[str]:
    """Every pinned entry of ``golden`` that ``actual`` does not reproduce
    (entries missing from ``actual`` are not compared)."""
    problems = []
    for key, pinned in golden.items():
        if key not in actual or actual[key] == pinned:
            continue
        if isinstance(pinned, list):
            moved = [
                i for i in range(max(len(pinned), len(actual[key])))
                if pinned[i: i + 1] != actual[key][i: i + 1]
            ]
            problems.append(
                f"{key}: {len(actual[key])} vs {len(pinned)} pinned; "
                f"entries {moved[:10]} differ"
            )
        else:
            problems.append(f"{key}: {actual[key]!r} != pinned {pinned!r}")
    return problems


def load() -> dict:
    return json.loads(GOLDEN.read_text())["digests"]


def pin() -> None:
    """Re-record the golden file from the current source."""
    with tempfile.TemporaryDirectory() as record_dir:
        pinned = digests(
            *run_sweeps(record_dir),
            context=context_findings(),
            context_advisories=context_advisories(),
        )
    data = {"config": CONFIG, "digests": pinned}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: sweep_golden.py [FINDINGS_DIR]", file=sys.stderr)
        return 2
    if argv:
        from repro.health import FindingsStore

        findings = [f.to_dict() for f in FindingsStore(argv[0]).findings()]
        actual = digests(findings)
    else:
        with tempfile.TemporaryDirectory() as record_dir:
            actual = digests(
                *run_sweeps(record_dir),
                context=context_findings(),
                context_advisories=context_advisories(),
            )
    problems = mismatches(actual, load())
    for problem in problems:
        print(problem)
    print(
        f"{len(problems)} pinned entr{'y' if len(problems) == 1 else 'ies'} moved"
        if problems else f"pinned sweep digests match ({len(actual['findings'])} findings)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    # The synthetic context imports ``tests.health.conftest``.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    sys.exit(main(sys.argv[1:]))
