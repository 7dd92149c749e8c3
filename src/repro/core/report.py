"""Human-readable diagnosis reports.

Renders a :class:`~repro.core.pipeline.PinSQLResult` the way the DAS
console would present it to a DBA: the anomaly summary, the pinpointed
root-cause SQLs with their statements, the high-impact SQLs with their
level scores, the propagation-chain evidence, and the suggested repair
actions.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.case import AnomalyCase
from repro.core.pipeline import PinSQLResult
from repro.core.repair.engine import RepairPlan

__all__ = [
    "DiagnosisReport",
    "render_report",
    "html_escape",
    "html_table",
    "render_html_document",
    "WIDENED_NOTE",
]

#: What ``RsqlResult.widened`` means, as every report states it.
WIDENED_NOTE = (
    "candidate set widened: history verification rejected every selected"
    " candidate, so every clustered template was re-verified"
)


@dataclass(frozen=True)
class DiagnosisReport:
    """A rendered diagnosis."""

    text: str
    top_r_sql: str | None
    top_h_sql: str | None

    def __str__(self) -> str:
        return self.text


# ----------------------------------------------------------------------
# HTML building blocks (shared with the incident flight recorder)
# ----------------------------------------------------------------------
_HTML_STYLE = """\
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 1.6rem; color: #16324f; }
table { border-collapse: collapse; width: 100%; margin: .6rem 0; }
th, td { border: 1px solid #c9d4e0; padding: .3rem .55rem;
         text-align: left; font-size: .9rem; }
th { background: #eef3f8; }
pre { background: #f5f6fa; border: 1px solid #d8dce6; padding: .7rem;
      overflow-x: auto; font-size: .8rem; }
.kv { color: #5a6b7f; }
"""


def html_escape(text: object) -> str:
    """Escape arbitrary text for safe embedding in HTML."""
    return html.escape(str(text), quote=True)


def html_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A plain HTML table; every cell is escaped."""
    head = "".join(f"<th>{html_escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html_escape(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def render_html_document(title: str, sections: Sequence[tuple[str, str]]) -> str:
    """A self-contained HTML document from ``(heading, body_html)`` pairs.

    Section bodies are raw HTML (build them with :func:`html_table` /
    :func:`html_escape`); headings are escaped here.
    """
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html_escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{html_escape(title)}</h1>",
    ]
    for heading, body in sections:
        if heading:
            parts.append(f"<h2>{html_escape(heading)}</h2>")
        parts.append(body)
    parts.append("</body></html>")
    return "\n".join(parts)


def _statement_of(case: AnomalyCase, sql_id: str, width: int = 64) -> str:
    info = case.catalog.get(sql_id)
    if info is None:
        return "(statement unavailable)"
    text = info.template
    return text if len(text) <= width else text[: width - 1] + "…"


def _session_summary(case: AnomalyCase) -> tuple[float, float]:
    session = case.active_session.values
    lo, hi = case.anomaly_indices()
    baseline = float(session[:lo].mean()) if lo > 0 else 0.0
    during = float(session[lo:hi].mean()) if hi > lo else 0.0
    return baseline, during


def render_report(
    case: AnomalyCase,
    result: PinSQLResult,
    plan: RepairPlan | None = None,
    top_k: int = 5,
) -> DiagnosisReport:
    """Render the diagnosis of one anomaly case as text."""
    lines: list[str] = []
    baseline, during = _session_summary(case)
    duration = case.anomaly_duration

    lines.append("=" * 72)
    lines.append("PinSQL diagnosis report")
    lines.append("=" * 72)
    lines.append(
        f"anomaly window : [{case.anomaly_start}, {case.anomaly_end}) "
        f"({duration} s; data window [{case.ts}, {case.te}))"
    )
    lines.append(
        f"active session : baseline ~{baseline:.1f} -> anomaly ~{during:.1f} "
        f"({during / baseline:.1f}x)" if baseline > 0 else
        f"active session : anomaly ~{during:.1f}"
    )
    lines.append(
        f"templates seen : {len(case.sql_ids)}  "
        f"(analysis took {result.timings.total:.2f} s)"
    )

    lines.append("")
    lines.append("Root cause SQLs (act on these):")
    if result.rsql.ranked:
        for i, (sql_id, score) in enumerate(result.rsql.ranked[:top_k], start=1):
            lines.append(
                f"  {i}. [{sql_id}] corr(#exec, session)={score:+.2f}"
            )
            lines.append(f"     {_statement_of(case, sql_id)}")
    else:
        lines.append("  (none pinpointed — escalate to a DBA)")
    if result.rsql.widened:
        lines.append(f"  note: {WIDENED_NOTE}.")

    lines.append("")
    lines.append("High-impact SQLs (symptoms — their sessions drive the anomaly):")
    for i, s in enumerate(result.hsql.scores[:top_k], start=1):
        lines.append(
            f"  {i}. [{s.sql_id}] impact={s.impact:+.2f} "
            f"(trend={s.trend:+.2f}, scale={s.scale:+.2f}, "
            f"scale-trend={s.scale_trend:+.2f})"
        )
        lines.append(f"     {_statement_of(case, s.sql_id)}")

    lines.append("")
    lines.append("Propagation-chain evidence:")
    top_r = result.rsql_ids[0] if result.rsql_ids else None
    top_h = result.hsql_ids[0] if result.hsql_ids else None
    if top_r and top_h:
        r_info = case.catalog.get(top_r)
        h_info = case.catalog.get(top_h)
        shared_tables = (
            set(r_info.tables) & set(h_info.tables)
            if r_info is not None and h_info is not None
            else set()
        )
        if top_r == top_h:
            lines.append(
                f"  [{top_r}] is both root cause and top H-SQL: its own"
                " sessions drive the anomaly directly."
            )
        elif shared_tables:
            lines.append(
                f"  [{top_r}] and the top H-SQL [{top_h}] touch shared"
                f" table(s) {sorted(shared_tables)} — consistent with"
                " lock-based blocking."
            )
        else:
            lines.append(
                f"  [{top_r}] correlates with the session anomaly while"
                f" [{top_h}] carries the session load — consistent with a"
                " resource-level (CPU/IO) propagation."
            )
        cluster = next(
            (c for c in result.rsql.clusters if top_r in c.sql_ids), None
        )
        if cluster is not None and len(cluster) > 1:
            lines.append(
                f"  the root cause clusters with {len(cluster) - 1} other"
                " template(s) of the same business trend."
            )

    if plan is not None:
        lines.append("")
        lines.append("Suggested repair actions:")
        if plan.actions:
            for action in plan.actions:
                lines.append(f"  - {action.kind} on [{action.sql_id or 'instance'}]")
                for item in getattr(action, "evidence", ()):
                    lines.append(f"      evidence: {item}")
        else:
            lines.append("  - none (thresholds not reached)")
        for skip in getattr(plan, "skips", ()):
            lines.append(f"  - skipped [{skip.sql_id}]: {skip.reason}")
        if plan.executed:
            lines.append(f"  executed: {[a.kind for a in plan.executed]}")

    lines.append("=" * 72)
    return DiagnosisReport(
        text="\n".join(lines),
        top_r_sql=top_r,
        top_h_sql=top_h,
    )
