"""Resilience-layer overhead on the clean diagnosis path.

Every diagnosis now runs under the stage watchdog, assesses its metric
windows for gaps (degraded-mode policy), and routes repair planning
through the circuit breaker.  On a *clean* substrate — dense windows,
no faults, breaker closed — all of that must be invisible: < 5% of the
diagnosis hot path, same budget as telemetry and incident recording.
"""

from repro.core import PinSQL, RepairEngine
from repro.core.report import render_report
from repro.detection.typing import classify_case
from repro.resilience import CircuitBreaker, DegradedModePolicy, StageWatchdog
from repro.telemetry import MetricsRegistry

from benchmarks.conftest import best_of, write_json, write_report

#: A clean per-second window shaped like the real assembly input:
#: three performance metrics over delta + anomaly (~25 minutes).
WINDOW_S = 1500
CLEAN_SAMPLES = {
    name: {t: 1.0 + (t % 7) for t in range(WINDOW_S)}
    for name in ("active_session", "cpu_usage", "iops_usage")
}


def _diagnose_bare(pinsql, repair, labeled):
    """The hot path with the resilience layer stripped out."""
    case = labeled.case
    result = pinsql.analyze(case)
    classify_case(case)
    plan = repair.plan(case, result)
    render_report(case, result, plan=plan)
    return result


def _diagnose_resilient(pinsql, repair, labeled, watchdog, policy, breaker):
    """The same work under watchdog + degraded assessment + breaker."""
    case = labeled.case
    deadline = watchdog.deadline()
    with watchdog.stage(deadline, "assemble"):
        assessment = policy.assess(CLEAN_SAMPLES, 0, WINDOW_S)
    with watchdog.stage(deadline, "analyze"):
        result = pinsql.analyze(case)
        classify_case(case)
    with watchdog.stage(deadline, "repair"):
        plan = breaker.call(repair.plan, case, result)
    with watchdog.stage(deadline, "report"):
        render_report(case, result, plan=plan)
    assert not assessment.degraded  # the clean path stays clean
    return result


def test_resilience_overhead(corpus, benchmark):
    pinsql = PinSQL()
    repair = RepairEngine()
    registry = MetricsRegistry()
    watchdog = StageWatchdog(60.0, registry=registry)
    policy = DegradedModePolicy(registry=registry)
    breaker = CircuitBreaker(name="bench-repair", registry=registry)
    cases = corpus[:8]
    for labeled in cases:  # warm both paths
        _diagnose_bare(pinsql, repair, labeled)
        _diagnose_resilient(pinsql, repair, labeled, watchdog, policy, breaker)

    lines = [
        "Resilience overhead — clean diagnosis path with vs without",
        f"(watchdog + degraded-mode assessment over {WINDOW_S}s x "
        f"{len(CLEAN_SAMPLES)} metrics + repair circuit breaker)",
        f"{'case':<8} {'bare':>10} {'resilient':>11} {'overhead':>9}",
    ]
    total_on = total_off = 0.0
    for i, labeled in enumerate(cases):
        t_off = best_of(lambda lc=labeled: _diagnose_bare(pinsql, repair, lc))
        t_on = best_of(
            lambda lc=labeled: _diagnose_resilient(
                pinsql, repair, lc, watchdog, policy, breaker
            )
        )
        total_on += t_on
        total_off += t_off
        lines.append(
            f"{i:<8} {t_off * 1e3:9.2f}ms {t_on * 1e3:10.2f}ms "
            f"{(t_on / t_off - 1) * 100:+8.2f}%"
        )
    overall = total_on / total_off - 1
    lines.append(f"overall overhead: {overall * 100:+.2f}% (budget: +5%)")
    write_report("resilience_overhead", "\n".join(lines))
    write_json(
        "resilience_overhead",
        {
            "cases": len(cases),
            "bare_seconds": total_off,
            "resilient_seconds": total_on,
            "overhead_fraction": overall,
            "budget_fraction": 0.05,
        },
    )

    assert overall < 0.05, (
        f"resilience-layer overhead {overall * 100:.2f}% exceeds 5%"
    )

    labeled = cases[0]
    benchmark(
        lambda: _diagnose_resilient(
            pinsql, repair, labeled, watchdog, policy, breaker
        )
    )
