"""Pinned fault counts of the seed-7 resilience suite.

``golden/scorecard_seed7.json`` records, for the clean baseline and
each fault class, how many records were quarantined (and why), how many
faults were injected, how many consumers were resynced and how many
diagnoses came out degraded.  The dataplane must reproduce them
exactly, so a change that moves any of them fails loudly instead of
passing the accuracy gates by luck.

The tier-1 gate is ``test_resilience_gates.py::TestGoldenCounts``.  To
check a scorecard written by ``repro chaos --seed 7 --instances 3
--anomalous 2 --duration 480 --out FILE`` (which carries every pinned
field but the quarantine reasons)::

    python tests/chaos/scorecard_golden.py FILE

A change that moves the counts on purpose re-pins them in the same
change with :func:`pin` (``python -c "from tests.chaos.scorecard_golden
import pin; pin()"`` from the repository root) and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Mapping

GOLDEN = Path(__file__).parent / "golden" / "scorecard_seed7.json"

#: The suite the counts were recorded on (the CLI's ``repro chaos`` defaults).
CONFIG = {"seed": 7, "n_instances": 3, "anomalous": 2, "duration_s": 480}

#: Per-fault report fields pinned by the golden file.
PINNED = ("quarantined", "faults_injected", "offset_resyncs", "degraded_diagnoses")


def quarantine_reasons(registry) -> dict[str, int]:
    """``collector_quarantined_total`` summed per reason over topics."""
    totals: dict[str, int] = {}
    for entry in registry.snapshot()["counters"]:
        if entry["name"] == "collector_quarantined_total":
            reason = entry["labels"]["reason"]
            totals[reason] = totals.get(reason, 0) + int(entry["value"])
    return dict(sorted(totals.items()))


def run_suite(record_dir: str | None = None):
    """Run the pinned suite: the config, the scorecard, and each run's
    registry and diagnoses (``fault -> ...``)."""
    from repro.evaluation import chaos as harness
    from repro.telemetry import MetricsRegistry

    registries: dict[str, MetricsRegistry] = {}
    diagnoses: dict[str, list] = {}
    run_fault_class = harness.run_fault_class

    def with_registry(fixture, cfg, fault, plan, **kwargs):
        registries[fault] = MetricsRegistry()
        diagnoses[fault] = []
        return run_fault_class(
            fixture, cfg, fault, plan, registry=registries[fault],
            diagnoses_out=diagnoses[fault], **kwargs
        )

    cfg = harness.ChaosHarnessConfig(**CONFIG, record_dir=record_dir)
    harness.run_fault_class = with_registry
    try:
        scorecard = harness.run_chaos_suite(cfg)
    finally:
        harness.run_fault_class = run_fault_class
    return cfg, scorecard, registries, diagnoses


def counts(reports: Mapping[str, Mapping], registries: Mapping | None = None) -> dict:
    """The pinned fields of each report (``fault -> report dict``), with the
    quarantine reasons when the runs' registries are given."""
    out = {}
    for fault, report in reports.items():
        out[fault] = {field: int(report[field]) for field in PINNED}
        if registries is not None:
            out[fault]["quarantine_reasons"] = quarantine_reasons(registries[fault])
    return out


def reports_of(scorecard: Mapping) -> dict[str, Mapping]:
    """``fault -> report dict`` of a :meth:`ResilienceScorecard.to_dict`."""
    return {r["fault"]: r for r in [scorecard["clean"], *scorecard["faults"]]}


def mismatches(actual: Mapping, golden: Mapping) -> list[str]:
    """Every pinned value of ``golden`` that ``actual`` does not reproduce
    (fields missing from ``actual`` are not compared)."""
    problems = []
    if set(actual) != set(golden):
        problems.append(f"fault classes {sorted(actual)} != pinned {sorted(golden)}")
    for fault in sorted(set(actual) & set(golden)):
        for field, pinned in golden[fault].items():
            if field in actual[fault] and actual[fault][field] != pinned:
                problems.append(
                    f"{fault}.{field}: {actual[fault][field]!r} != pinned {pinned!r}"
                )
    return problems


def load() -> dict:
    return json.loads(GOLDEN.read_text())["faults"]


def pin() -> None:
    """Re-record the golden file from the current source."""
    _, scorecard, registries, _ = run_suite()
    data = {
        "config": CONFIG,
        "faults": counts(reports_of(scorecard.to_dict()), registries),
    }
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: scorecard_golden.py SCORECARD_JSON", file=sys.stderr)
        return 2
    scorecard = json.loads(Path(argv[0]).read_text())
    if {k: scorecard.get(k) for k in ("seed", "instances", "duration_s")} != {
        "seed": CONFIG["seed"], "instances": CONFIG["n_instances"],
        "duration_s": CONFIG["duration_s"],
    }:
        print(f"{argv[0]} is not the pinned suite {CONFIG}", file=sys.stderr)
        return 1
    problems = mismatches(counts(reports_of(scorecard)), load())
    for problem in problems:
        print(problem)
    print(f"{len(problems)} pinned count(s) moved" if problems else "pinned counts match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
