"""Resilience primitives: survive the substrate the pipeline runs on.

PinSQL's always-on loop assumes a perfect world — brokers never stall,
repair execution never fails, metric windows never have holes.  This
package holds the reusable primitives that drop that assumption:

* :class:`Deadline` / :class:`StageWatchdog` — per-diagnosis time
  budgets checked between pipeline stages, so one pathological case
  cannot wedge a fleet worker;
* :class:`CircuitBreaker` — closed/open/half-open around side-effecting
  calls (repair execution), with a telemetry-labelled state gauge;
* degraded mode — :class:`DegradedModePolicy` detects metric-window
  gaps and missing context, falls back to interpolation or a shrunken
  window, and stamps the resulting :class:`DiagnosisConfidence` on the
  diagnosis so downstream consumers (incident records, DBAs) can see
  which verdicts rode on imperfect evidence.

Nothing here retries a failed call: a crashed fleet step is restarted
by the fleet supervisor, and a failing repair path opens the breaker.
Every clock is injectable: determinism is a feature, not an accident,
because the chaos harness (:mod:`repro.chaos`) replays the exact same
fault sequences against these primitives.
"""

from repro.resilience.deadline import Deadline, DeadlineExceeded, StageWatchdog
from repro.resilience.breaker import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.resilience.degraded import (
    DegradedAssessment,
    DegradedModePolicy,
    DiagnosisConfidence,
    interpolate_series,
    window_gap_fraction,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "DegradedAssessment",
    "DegradedModePolicy",
    "DiagnosisConfidence",
    "StageWatchdog",
    "interpolate_series",
    "window_gap_fraction",
]
