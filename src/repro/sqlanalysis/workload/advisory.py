"""Advisory records and the workload advisory report.

An :class:`Advisory` is the cross-statement analogue of a lint
``Finding``: one explainable, severity-scored recommendation produced by
a workload pass (lock-conflict graph, index advisor, join/fan-out).
Where a ``Finding`` anchors to a single statement, an advisory may span
several templates (``sql_ids``) and carries a traffic-weighted ``score``
so downstream consumers — repair planning, health checks, incident
records — can rank it against statistical evidence.

:class:`AdvisoryReport` mirrors ``LintReport`` (strict JSON, console
text, the same 0/1/2 exit contract via :func:`advise_failed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.jsonrecord import JsonRecord, Scalar
from repro.sqlanalysis.rules import Severity

__all__ = ["Advisory", "AdvisoryReport", "advise_failed"]


@dataclass(frozen=True)
class Advisory(JsonRecord):
    """One workload-level recommendation.

    ``advisor`` names the pass that produced it; ``evidence`` holds the
    JSON-scalar facts behind the score so renderers can explain it.
    """

    advisor: str
    severity: Severity
    message: str
    table: str = ""
    tables: tuple[str, ...] = ()
    sql_ids: tuple[str, ...] = ()
    suggestion: str = ""
    score: float = 0.0
    evidence: dict[str, Scalar] = field(default_factory=dict)

    def sort_key(self) -> tuple[int, str, str, tuple[str, ...]]:
        """Deterministic ordering: severity desc, then stable identity."""
        return (-int(self.severity), self.advisor, self.table, self.sql_ids)


@dataclass
class AdvisoryReport:
    """The result of one workload analysis."""

    advisories: list[Advisory] = field(default_factory=list)
    analyzed: int = 0
    #: Optional precision/recall block (present when advisory baits were
    #: planted with ground-truth labels).
    evaluation: dict[str, Any] | None = None

    @property
    def max_severity(self) -> Severity | None:
        return max((a.severity for a in self.advisories), default=None)

    def count_by_severity(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for a in self.advisories:
            counts[a.severity.label] = counts.get(a.severity.label, 0) + 1
        return counts

    def count_by_advisor(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for a in self.advisories:
            counts[a.advisor] = counts.get(a.advisor, 0) + 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form (CI artifact format)."""
        data: dict[str, Any] = {
            "analyzed": self.analyzed,
            "advisories_total": len(self.advisories),
            "counts_by_severity": self.count_by_severity(),
            "counts_by_advisor": self.count_by_advisor(),
            "advisories": [a.to_dict() for a in self.advisories],
        }
        if self.evaluation is not None:
            data["evaluation"] = self.evaluation
        return data

    def render_text(self, width: int = 100) -> str:
        """Console rendering, most severe advisories first."""
        lines = [
            f"Analyzed {self.analyzed} templates: "
            f"{len(self.advisories)} workload advisories",
        ]
        by_sev = self.count_by_severity()
        if by_sev:
            lines.append(
                "  "
                + "  ".join(
                    f"{sev.label}={by_sev[sev.label]}"
                    for sev in sorted(Severity, reverse=True)
                    if sev.label in by_sev
                )
            )
        for a in self.advisories:
            where = f" on {a.table}" if a.table else ""
            lines.append("")
            lines.append(f"{a.severity.label:<8} {a.advisor}{where}: {a.message}")
            if a.sql_ids:
                shown = ", ".join(a.sql_ids[:6])
                if len(a.sql_ids) > 6:
                    shown += f", … +{len(a.sql_ids) - 6}"
                lines.append(f"         templates: {shown}")
            if a.suggestion:
                sugg = a.suggestion
                if len(sugg) > width:
                    sugg = sugg[: width - 1] + "…"
                lines.append(f"         fix: {sugg}")
        if self.evaluation is not None:
            lines.append("")
            lines.append(
                "Planted advisory evaluation: "
                f"precision={self.evaluation.get('precision', 0.0):.3f} "
                f"recall={self.evaluation.get('recall', 0.0):.3f}"
            )
        return "\n".join(lines)


def advise_failed(report: AdvisoryReport, fail_on: str) -> bool:
    """The exit-code contract: True when an advisory meets the threshold.

    ``fail_on`` is a severity label (``info``/``warning``/``high``/
    ``critical``) or ``never``.
    """
    if fail_on == "never":
        return False
    threshold = Severity.from_label(fail_on)
    worst = report.max_severity
    return worst is not None and worst >= threshold
