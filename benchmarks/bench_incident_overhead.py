"""Incident-recorder overhead on the diagnosis hot path.

The flight recorder rides along with every diagnosis; like the
telemetry benchmark it must stay invisible: flattening the evidence
chain and appending the JSONL line must cost < 5% of the diagnosis
itself (analysis + typing + repair planning + report rendering).
"""

import tempfile

from repro.core import PinSQL, RepairEngine
from repro.core.report import render_report
from repro.detection.case_builder import DetectedAnomaly
from repro.detection.typing import classify_case
from repro.fleet.engine import Diagnosis
from repro.incidents import IncidentRecorder, IncidentStore

from benchmarks.conftest import best_of, write_json, write_report


def _diagnose(pinsql, repair, labeled) -> Diagnosis:
    """The per-anomaly hot path an engine runs once an event fires."""
    case = labeled.case
    result = pinsql.analyze(case)
    verdict = classify_case(case)
    plan = repair.plan(case, result)
    report = render_report(case, result, plan=plan)
    return Diagnosis(
        anomaly=DetectedAnomaly(
            start=case.anomaly_start, end=case.anomaly_end,
            types=("active_session_anomaly",),
        ),
        case=case,
        result=result,
        report=report,
        plan=plan,
        executed=False,
        verdict=verdict,
        instance_id="bench",
    )


def test_incident_recorder_overhead(corpus, benchmark, tmp_path_factory):
    pinsql = PinSQL()
    repair = RepairEngine()
    cases = corpus[:8]
    with tempfile.TemporaryDirectory() as tmp:
        recorder = IncidentRecorder(IncidentStore(tmp, max_segment_bytes=1 << 22))
        for labeled in cases:  # warm both paths
            recorder.record(_diagnose(pinsql, repair, labeled))

        lines = [
            "Incident recorder overhead — diagnosis hot path with vs without",
            f"{'case':<8} {'bare':>10} {'recording':>11} {'overhead':>9}",
        ]
        total_on = total_off = 0.0
        for i, labeled in enumerate(cases):
            t_off = best_of(lambda lc=labeled: _diagnose(pinsql, repair, lc))
            t_on = best_of(
                lambda lc=labeled: recorder.record(_diagnose(pinsql, repair, lc))
            )
            total_on += t_on
            total_off += t_off
            lines.append(
                f"{i:<8} {t_off * 1e3:9.2f}ms {t_on * 1e3:10.2f}ms "
                f"{(t_on / t_off - 1) * 100:+8.2f}%"
            )
        overall = total_on / total_off - 1
        lines.append(f"overall overhead: {overall * 100:+.2f}% (budget: +5%)")
        store = recorder.store
        lines.append(
            f"store after run: {store.record_count} records, "
            f"{store.total_bytes / 1024:.0f} KiB in {store.segment_count} segment(s)"
        )
        write_report("incident_overhead", "\n".join(lines))
        write_json(
            "incident_overhead",
            {
                "cases": len(cases),
                "bare_seconds": total_off,
                "recording_seconds": total_on,
                "overhead_fraction": overall,
                "budget_fraction": 0.05,
                "records": store.record_count,
                "store_bytes": store.total_bytes,
                "segments": store.segment_count,
            },
        )

        assert overall < 0.05, (
            f"incident recording overhead {overall * 100:.2f}% exceeds 5%"
        )

        diagnosis = _diagnose(pinsql, repair, cases[0])
        benchmark(lambda: recorder.record(diagnosis))
