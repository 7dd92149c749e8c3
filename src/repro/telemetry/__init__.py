"""Self-telemetry for the PinSQL service (metrics, tracing, logging).

PinSQL diagnoses other databases; this package instruments PinSQL
itself so the paper's production-deployment story (Sec. III Fig. 5,
Table IV's overhead budget) is observable in the reproduction:

* :class:`MetricsRegistry` — counters / gauges / fixed-bucket
  histograms, exportable as JSON or Prometheus text exposition;
* :class:`Tracer` — nested context-manager spans replacing the old
  ad-hoc ``perf_counter`` sites while still feeding ``StageTimings``;
* structured logging (``key=value`` or JSON lines) behind a single
  :func:`configure_telemetry` entry point.

A process-wide default registry and tracer back every instrumented
component; all of them also accept explicit instances for isolation
(tests, side-by-side services).
"""

from repro.telemetry.metrics import (
    BoundInstruments,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    EXPORT_QUANTILES,
    filter_snapshot,
    fraction_at_most,
    labeled_name,
    quantile_from_buckets,
    render_summary,
)
from repro.telemetry.tracing import (
    Span,
    TraceContext,
    Tracer,
    new_trace_context,
    observed_span_names,
    set_trace_propagation,
    span_from_dict,
    span_to_dict,
    trace_propagation_enabled,
)
from repro.telemetry.logs import (
    JsonFormatter,
    KeyValueFormatter,
    configure_telemetry,
    get_logger,
)

__all__ = [
    "BoundInstruments",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "EXPORT_QUANTILES",
    "filter_snapshot",
    "fraction_at_most",
    "labeled_name",
    "quantile_from_buckets",
    "render_summary",
    "Span",
    "TraceContext",
    "Tracer",
    "new_trace_context",
    "observed_span_names",
    "set_trace_propagation",
    "span_from_dict",
    "span_to_dict",
    "trace_propagation_enabled",
    "JsonFormatter",
    "KeyValueFormatter",
    "configure_telemetry",
    "get_logger",
    "get_registry",
    "get_tracer",
    "reset_telemetry",
]

#: Process-wide defaults used by every instrumented component unless an
#: explicit registry/tracer is injected.
_REGISTRY = MetricsRegistry()
_TRACER = Tracer(registry=_REGISTRY)


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _REGISTRY


def get_tracer() -> Tracer:
    """The process-wide default tracer (bound to the default registry)."""
    return _TRACER


def reset_telemetry() -> None:
    """Clear the default registry and tracer (tests, CLI runs)."""
    _REGISTRY.reset()
    _TRACER.reset()
    set_trace_propagation(True)
