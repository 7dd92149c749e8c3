"""Render incident records for humans: full-chain text and HTML.

The text renderer is what ``repro incidents show`` prints: the complete
evidence chain — anomaly window → triggering metrics → H-SQL scores →
R-SQL attribution → repair outcome → stage timings and span tree — in
the DAS-console style of :mod:`repro.core.report`.  The HTML renderer
produces a self-contained document (no external assets) suitable for
attaching to a ticket or a CI artifact.
"""

from __future__ import annotations

from repro.core.report import WIDENED_NOTE, html_escape, html_table, render_html_document
from repro.incidents.record import IncidentRecord, MetricTrace, SpanNode

__all__ = ["render_incident_text", "render_incident_html"]

_RULE = "=" * 72


def _trace_summary(trace: MetricTrace) -> tuple[float, float, float]:
    values = [v for _, v in trace.samples]
    if not values:
        return 0.0, 0.0, 0.0
    return min(values), sum(values) / len(values), max(values)


def _freshness_summary(df: dict) -> str:
    """One-line rendering of a record's ``data_freshness`` dict."""
    if not df:
        return "-"
    parts = []
    if "staleness_s" in df:
        parts.append(f"staleness {df['staleness_s']} s (stream)")
    if "ingest_lag_s" in df:
        parts.append(f"ingest lag {float(df['ingest_lag_s']):.3f} s")
    if "event_time_s" in df:
        parts.append(f"newest event t={df['event_time_s']}")
    return ", ".join(parts) or "-"


def _span_lines(node: SpanNode) -> list[str]:
    lines = []
    for depth, span in node.walk():
        elapsed = "?" if span.elapsed is None else f"{span.elapsed * 1000:.2f} ms"
        label = "  " * depth + span.name
        status = ""
        if span.attrs.get("status") == "error":
            status = f"  !! {span.attrs.get('error', 'error')}"
        lines.append(f"{label:<44} {elapsed:>12}{status}")
    return lines


def render_incident_text(record: IncidentRecord) -> str:
    """The full evidence chain of one incident as console text."""
    r = record
    lines = [
        _RULE,
        f"Incident {r.incident_id}",
        _RULE,
        f"instance       : {r.instance_id}",
        f"anomaly window : [{r.anomaly.start}, {r.anomaly.end}) "
        f"({r.anomaly.duration} s)",
        f"anomaly types  : {', '.join(r.anomaly.types) or '-'}",
        f"detected at    : {r.anomaly.detected_at}"
        + (f"  (recorded at stream t={r.created_at})" if r.created_at else ""),
        f"verdict        : {r.verdict_category or 'untyped'}"
        + (f"  [{r.verdict_evidence}]" if r.verdict_evidence else ""),
        f"confidence     : {r.confidence or 'full'}"
        + (
            f"  ({'; '.join(r.degraded_reasons)})"
            if r.degraded_reasons
            else ""
        ),
        f"data freshness : {_freshness_summary(r.data_freshness)}",
        f"templates seen : {r.templates_seen}",
        "",
        "Triggering metrics (raw detector samples over the evidence window):",
    ]
    if r.metric_traces:
        for trace in r.metric_traces:
            lo, mean, hi = _trace_summary(trace)
            lines.append(
                f"  {trace.name:<24} {len(trace.samples):>5} samples  "
                f"min {lo:10.2f}  mean {mean:10.2f}  max {hi:10.2f}"
            )
    else:
        lines.append("  (no metric samples captured)")

    lines += ["", "H-SQL candidates (symptoms; impact = fused level scores):"]
    if r.hsql:
        lines.append(
            f"  fusion weights: alpha={r.hsql_alpha:+.3f} beta={r.hsql_beta:+.3f}"
        )
        for i, h in enumerate(r.hsql, start=1):
            lines.append(
                f"  {i}. [{h.sql_id}] impact={h.impact:+.3f} "
                f"(trend={h.trend:+.3f}, scale={h.scale:+.3f}, "
                f"scale-trend={h.scale_trend:+.3f})"
            )
            if h.statement:
                lines.append(f"     {h.statement}")
    else:
        lines.append("  (none)")

    lines += ["", "R-SQL attribution (root causes; score = corr(#exec, session)):"]
    if r.rsql:
        for i, c in enumerate(r.rsql, start=1):
            mark = "verified" if c.verified else "unverified"
            lines.append(
                f"  {i}. [{c.sql_id}] score={c.score:+.3f}  ({mark})"
            )
            if c.statement:
                lines.append(f"     {c.statement}")
        if r.rsql_widened:
            lines.append(f"  note: {WIDENED_NOTE}.")
    else:
        lines.append("  (none pinpointed — escalate to a DBA)")
    if r.clusters:
        lines.append(
            "  clusters: "
            + ", ".join(f"size {c.size} (impact {c.impact:+.2f})" for c in r.clusters)
        )

    lines += ["", "Static analysis findings (structural anti-patterns):"]
    if r.analysis:
        for f in r.analysis:
            lines.append(
                f"  [{f.severity.label.upper():>8}] {f.rule} on [{f.sql_id}]: "
                f"{f.message}"
            )
            if f.suggestion:
                lines.append(f"             fix: {f.suggestion}")
    else:
        lines.append("  (none)")

    lines += ["", "Workload advisories (cross-statement analysis):"]
    if r.advisories:
        for a in r.advisories:
            where = f" on {a.table}" if a.table else ""
            lines.append(
                f"  [{a.severity.label.upper():>8}] {a.advisor}{where}: {a.message}"
            )
            if a.sql_ids:
                lines.append(f"             templates: {', '.join(a.sql_ids[:6])}")
            if a.suggestion:
                lines.append(f"             fix: {a.suggestion}")
    else:
        lines.append("  (none)")

    lines += ["", f"Repair outcome: {r.repair.outcome} "
              f"(session lift {r.repair.session_lift:.2f}x)"]
    for action in r.repair.planned:
        extras = {
            k: v for k, v in action.items() if k not in ("kind", "sql_id", "evidence")
        }
        detail = f" {extras}" if extras else ""
        lines.append(
            f"  - {action.get('kind')} on [{action.get('sql_id') or 'instance'}]{detail}"
        )
        for item in action.get("evidence") or ():
            lines.append(f"      evidence: {item}")
    for skip in r.repair.skipped:
        lines.append(
            f"  - skipped [{skip.get('sql_id')}]: {skip.get('reason')}"
        )
    if r.repair.executed_kinds:
        lines.append(f"  executed: {list(r.repair.executed_kinds)}")

    lines += ["", "Stage timings:"]
    for stage, seconds in r.timings.items():
        lines.append(f"  {stage:<28} {seconds * 1000:10.2f} ms")

    if r.trace is not None:
        trace_id = r.trace.attrs.get("trace_id")
        header = (
            f"Diagnosis trace (span tree, trace {trace_id}):"
            if trace_id
            else "Diagnosis trace (span tree):"
        )
        lines += ["", header]
        lines += ["  " + line for line in _span_lines(r.trace)]
    lines.append(_RULE)
    return "\n".join(lines)


def render_incident_html(record: IncidentRecord) -> str:
    """One incident as a self-contained HTML document."""
    r = record
    summary = html_table(
        ["field", "value"],
        [
            ("incident id", r.incident_id),
            ("instance", r.instance_id),
            ("anomaly window",
             f"[{r.anomaly.start}, {r.anomaly.end})  ({r.anomaly.duration} s)"),
            ("anomaly types", ", ".join(r.anomaly.types) or "-"),
            ("detected at", r.anomaly.detected_at),
            ("verdict", r.verdict_category or "untyped"),
            ("verdict evidence", r.verdict_evidence or "-"),
            ("confidence", r.confidence or "full"),
            ("degraded reasons", "; ".join(r.degraded_reasons) or "-"),
            ("data freshness", _freshness_summary(r.data_freshness)),
            ("trace id",
             (r.trace.attrs.get("trace_id") or "-") if r.trace else "-"),
            ("templates seen", r.templates_seen),
            ("repair outcome", r.repair.outcome),
        ],
    )
    metrics = html_table(
        ["metric", "samples", "min", "mean", "max"],
        [
            (t.name, len(t.samples)) + tuple(f"{x:.2f}" for x in _trace_summary(t))
            for t in r.metric_traces
        ],
    )
    hsql = html_table(
        ["#", "sql_id", "impact", "trend", "scale", "scale-trend", "statement"],
        [
            (i, h.sql_id, f"{h.impact:+.3f}", f"{h.trend:+.3f}",
             f"{h.scale:+.3f}", f"{h.scale_trend:+.3f}", h.statement)
            for i, h in enumerate(r.hsql, start=1)
        ],
    )
    rsql = html_table(
        ["#", "sql_id", "score", "verified", "statement"],
        [
            (i, c.sql_id, f"{c.score:+.3f}",
             "yes" if c.verified else "no", c.statement)
            for i, c in enumerate(r.rsql, start=1)
        ],
    )
    rsql_note = f"<p class=\"kv\">{WIDENED_NOTE}</p>" if r.rsql_widened else ""
    analysis = html_table(
        ["severity", "rule", "sql_id", "table", "message", "suggested fix"],
        [
            (f.severity.label, f.rule, f.sql_id, f.table or "-",
             f.message, f.suggestion or "-")
            for f in r.analysis
        ],
    )
    advisories = html_table(
        ["severity", "advisor", "tables", "templates", "message", "suggested fix"],
        [
            (a.severity.label, a.advisor,
             ", ".join(a.tables) or a.table or "-",
             ", ".join(a.sql_ids[:6]) or "-",
             a.message, a.suggestion or "-")
            for a in r.advisories
        ],
    )
    repair_rows = [
        (a.get("kind"), a.get("sql_id") or "instance",
         html_escape({k: v for k, v in a.items()
                      if k not in ("kind", "sql_id", "evidence")}),
         "; ".join(a.get("evidence") or ()) or "-")
        for a in r.repair.planned
    ]
    repair = (
        f"<p>outcome: <b>{html_escape(r.repair.outcome)}</b> "
        f"(session lift {r.repair.session_lift:.2f}x; "
        f"executed: {html_escape(list(r.repair.executed_kinds) or 'none')})</p>"
        + html_table(["action", "target", "parameters", "evidence"], repair_rows)
    )
    if r.repair.skipped:
        repair += html_table(
            ["skipped sql_id", "reason"],
            [(s.get("sql_id"), s.get("reason")) for s in r.repair.skipped],
        )
    timings = html_table(
        ["stage", "milliseconds"],
        [(stage, f"{seconds * 1000:.2f}") for stage, seconds in r.timings.items()],
    )
    sections = [
        ("Summary", summary),
        ("Triggering metrics", metrics),
        (f"H-SQL candidates (α={r.hsql_alpha:+.3f}, β={r.hsql_beta:+.3f})", hsql),
        ("R-SQL attribution", rsql + rsql_note),
        ("Static analysis findings", analysis),
        ("Workload advisories", advisories),
        ("Repair", repair),
        ("Stage timings", timings),
    ]
    if r.trace is not None:
        sections.append(
            ("Diagnosis trace",
             "<pre>" + html_escape("\n".join(_span_lines(r.trace))) + "</pre>")
        )
    if r.report_text:
        sections.append(
            ("DBA report", "<pre>" + html_escape(r.report_text) + "</pre>")
        )
    return render_html_document(f"PinSQL incident {r.incident_id}", sections)
