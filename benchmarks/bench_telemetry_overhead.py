"""Telemetry overhead — instrumented vs bare ``PinSQL.analyze``.

The paper's Table IV argues the collection overhead on the observed
database is negligible; this benchmark makes the same argument for our
self-telemetry: the span/histogram instrumentation on the diagnosis
pipeline must cost < 5% of the uninstrumented wall-clock.
"""

from repro.core import PinSQL
from repro.telemetry import MetricsRegistry, Tracer

from benchmarks.conftest import best_of, write_json, write_report


def test_telemetry_overhead(corpus, benchmark):
    registry = MetricsRegistry()
    enabled = PinSQL(tracer=Tracer(registry=registry))
    disabled = PinSQL(tracer=Tracer(enabled=False))
    cases = [lc.case for lc in corpus[:8]]
    for case in cases:  # warm both paths
        enabled.analyze(case)
        disabled.analyze(case)

    lines = [
        "Telemetry overhead — PinSQL.analyze() instrumented vs bare",
        f"{'case':<8} {'bare':>10} {'instrumented':>13} {'overhead':>9}",
    ]
    total_on = total_off = 0.0
    for i, case in enumerate(cases):
        t_on = best_of(lambda c=case: enabled.analyze(c))
        t_off = best_of(lambda c=case: disabled.analyze(c))
        total_on += t_on
        total_off += t_off
        lines.append(
            f"{i:<8} {t_off * 1e3:9.2f}ms {t_on * 1e3:12.2f}ms "
            f"{(t_on / t_off - 1) * 100:+8.2f}%"
        )
    overall = total_on / total_off - 1
    lines.append(f"overall overhead: {overall * 100:+.2f}% (budget: +5%)")
    spans = registry.get("span_duration_seconds", span="pinsql.analyze")
    lines.append(f"spans recorded: {int(spans.count)} pinsql.analyze traces")
    write_report("telemetry_overhead", "\n".join(lines))
    write_json(
        "telemetry_overhead",
        {
            "cases": len(cases),
            "bare_seconds": total_off,
            "instrumented_seconds": total_on,
            "overhead_fraction": overall,
            "budget_fraction": 0.05,
            "spans_recorded": int(spans.count),
        },
    )

    assert overall < 0.05, f"telemetry overhead {overall * 100:.2f}% exceeds 5%"

    benchmark(lambda: enabled.analyze(cases[0]))
