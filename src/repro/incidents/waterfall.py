"""Trace waterfalls: render an incident's span tree against time.

The incident record already carries the diagnosis trace as a
:class:`~repro.incidents.record.SpanNode` tree — with cross-process
propagation, the root may be a synthetic ``broker.publish_block`` node
from the publishing process, with the worker's ``service.diagnose``
subtree parented under it.  The plain tree rendering shows *structure*;
a waterfall shows *where the time went*: each span is drawn as a bar
offset by the elapsed time of the siblings before it, so serial stages
read as a staircase and a dominant stage is visually obvious.

Spans carry durations, not wall-clock start stamps, so offsets are
reconstructed: a span starts where its previous sibling ended, at its
parent's start.  That is exact for the sequential diagnosis pipeline
(stages run back-to-back under one parent) and a documented
approximation for anything concurrent.  Spans without a duration (the
synthetic remote publish node, crash placeholders) render as markers
with an unknown width.
"""

from __future__ import annotations

from repro.core.report import html_escape, render_html_document
from repro.incidents.record import IncidentRecord, SpanNode

__all__ = ["render_trace_text", "render_trace_html", "trace_rows"]

_BAR_WIDTH = 32


def trace_rows(trace: SpanNode) -> list[tuple[int, SpanNode, float]]:
    """Flatten a span tree to ``(depth, node, start_s)`` rows, pre-order.

    ``start_s`` is the reconstructed offset from the trace root: the
    parent's start plus the elapsed time of every previous sibling.
    """
    rows: list[tuple[int, SpanNode, float]] = []

    def visit(node: SpanNode, depth: int, start: float) -> None:
        rows.append((depth, node, start))
        offset = start
        for child in node.children:
            visit(child, depth + 1, offset)
            offset += child.elapsed or 0.0

    visit(trace, 0, 0.0)
    return rows


def _total_seconds(rows: list[tuple[int, SpanNode, float]]) -> float:
    return max((start + (node.elapsed or 0.0) for _, node, start in rows),
               default=0.0)


def _bar(start: float, elapsed: float | None, total: float) -> str:
    """One fixed-width ASCII waterfall bar."""
    if total <= 0:
        return "·" * _BAR_WIDTH
    lead = min(_BAR_WIDTH - 1, int(round(start / total * _BAR_WIDTH)))
    if elapsed is None:
        return " " * lead + "?" + " " * (_BAR_WIDTH - lead - 1)
    span = max(1, int(round(elapsed / total * _BAR_WIDTH)))
    span = min(span, _BAR_WIDTH - lead)
    return " " * lead + "#" * span + " " * (_BAR_WIDTH - lead - span)


def _label(record: IncidentRecord) -> str:
    trace_id = record.trace.attrs.get("trace_id") if record.trace else None
    base = f"incident {record.incident_id}"
    return f"trace {trace_id} — {base}" if trace_id else base


def render_trace_text(record: IncidentRecord) -> str:
    """The incident's span tree as an ASCII waterfall."""
    if record.trace is None:
        return f"incident {record.incident_id}: no trace recorded"
    rows = trace_rows(record.trace)
    total = _total_seconds(rows)
    rule = "=" * 72
    lines = [
        rule,
        _label(record),
        f"instance {record.instance_id}; "
        f"critical path {total * 1000:.2f} ms over {len(rows)} span(s)",
        rule,
        f"{'span':<40} {'proc':>4} {'start':>10} {'took':>10}  waterfall",
    ]
    for depth, node, start in rows:
        name = "  " * depth + node.name
        proc = node.attrs.get("process")
        took = "?" if node.elapsed is None else f"{node.elapsed * 1000:.2f}ms"
        error = ""
        if node.attrs.get("status") == "error":
            error = f"  !! {node.attrs.get('error', 'error')}"
        lines.append(
            f"{name:<40} {'-' if proc is None else proc:>4} "
            f"{start * 1000:>8.2f}ms {took:>10}  "
            f"|{_bar(start, node.elapsed, total)}|{error}"
        )
    lines.append(rule)
    return "\n".join(lines)


def render_trace_html(record: IncidentRecord) -> str:
    """The incident's span tree as a self-contained HTML waterfall."""
    if record.trace is None:
        body = f"<p>incident {html_escape(record.incident_id)}: no trace recorded</p>"
        return render_html_document(
            f"PinSQL trace — incident {record.incident_id}",
            [("Waterfall", body)],
        )
    rows = trace_rows(record.trace)
    total = _total_seconds(rows)
    cells = []
    for depth, node, start in rows:
        left = 0.0 if total <= 0 else min(100.0, start / total * 100.0)
        if node.elapsed is None:
            bar = (
                f'<div style="position:absolute;left:{left:.2f}%;'
                'top:1px;color:#888;font-size:10px">?</div>'
            )
        else:
            width = 0.0 if total <= 0 else min(100.0 - left,
                                               node.elapsed / total * 100.0)
            color = "#b33" if node.attrs.get("status") == "error" else "#47a"
            bar = (
                f'<div style="position:absolute;left:{left:.2f}%;'
                f'width:{max(width, 0.4):.2f}%;top:2px;bottom:2px;'
                f'background:{color};border-radius:2px"></div>'
            )
        name = html_escape(node.name)
        indent = depth * 14
        proc = node.attrs.get("process")
        took = "?" if node.elapsed is None else f"{node.elapsed * 1000:.2f} ms"
        error = ""
        if node.attrs.get("status") == "error":
            error = (
                ' <span style="color:#b33">!! '
                + html_escape(node.attrs.get("error", "error"))
                + "</span>"
            )
        cells.append(
            "<tr>"
            f'<td style="padding-left:{indent}px">{name}{error}</td>'
            f"<td>{'-' if proc is None else html_escape(proc)}</td>"
            f"<td>{start * 1000:.2f} ms</td>"
            f"<td>{html_escape(took)}</td>"
            '<td style="width:45%"><div style="position:relative;height:16px;'
            f'background:#eee;border-radius:2px">{bar}</div></td>'
            "</tr>"
        )
    table = (
        "<table><thead><tr><th>span</th><th>proc</th><th>start</th>"
        "<th>took</th><th>waterfall</th></tr></thead><tbody>"
        + "".join(cells)
        + "</tbody></table>"
    )
    trace_id = record.trace.attrs.get("trace_id")
    summary = (
        f"<p class=\"kv\">{html_escape(_label(record))} · instance "
        f"{html_escape(record.instance_id)} · "
        f"critical path {total * 1000:.2f} ms over {len(rows)} span(s)</p>"
    )
    return render_html_document(
        f"PinSQL trace — incident {record.incident_id}"
        + (f" ({trace_id})" if trace_id else ""),
        [("Waterfall", summary + table)],
    )
