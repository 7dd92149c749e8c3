"""The health finding: one proactive observation about the fleet.

Where an :class:`~repro.incidents.IncidentRecord` freezes the evidence
of an anomaly that *already fired*, a :class:`HealthFinding` records a
condition a DBA would want to know about *before* the detector
threshold is crossed: a template whose response time is creeping up, a
rising lock footprint, traffic concentrating on anti-pattern SQL, an
instance whose incidents keep degrading to low-confidence evidence.

Findings are plain data, and like incident records their strict-JSON
shape is defined once, by the field declarations read through
:mod:`repro.jsonrecord`: severity is stored as its label, evidence
values are coerced to JSON scalars, and ``to_dict`` / ``from_dict``
round-trip exactly, because the findings store persists them as JSONL
lines and the daily report, CLI and lead-time harness all consume the
serialised shape.  Severity reuses :class:`~repro.sqlanalysis.Severity`
so one ordering spans static analysis and health sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.jsonrecord import JsonRecord, Scalar, decode
from repro.sqlanalysis import Severity

__all__ = ["HealthFinding"]


@dataclass(frozen=True)
class HealthFinding(JsonRecord):
    """One severity-scored proactive observation from a health sweep."""

    #: Id of the check that produced the finding (``rising-response-time``).
    check: str
    severity: Severity
    #: The mechanism, in DBA language: what is trending and why it matters.
    message: str
    #: The monitored instance; empty for fleet-scope findings.
    instance_id: str = ""
    #: The implicated template, when the check is template-scoped.
    sql_id: str = ""
    #: The implicated metric series, when the check is metric-scoped.
    metric: str = ""
    #: Stream time of the sweep that produced the finding.
    detected_at: int = 0
    #: Machine-readable numbers behind the message (slopes, shares,
    #: counts) — strict-JSON scalars only.
    evidence: dict[str, Scalar] = field(default_factory=dict)
    #: What a DBA should do about it.
    suggestion: str = ""
    #: Id of the sweep, tying all of one sweep's findings together.
    sweep_id: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> HealthFinding:
        return decode(cls, {"severity": "info", "message": "", **data})
