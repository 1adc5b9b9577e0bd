"""Zero-dependency telemetry: spans, metrics, exporters.

The observability layer is **off by default** and guaranteed not to
perturb scenario fingerprints: span/metric state lives entirely outside
the hashed result fields (like ``diagnostics``), and the disabled path
is a shared no-op singleton so hot loops pay only an attribute check.

Quick tour::

    from repro.obs import span, metrics, enable_tracing

    enable_tracing()
    with span("realloc.solve", flows=42):
        ...
    metrics().counter("store.appends").inc()
    snap = metrics().snapshot()

Spans record *both* wall time and virtual (simulated) time when a
virtual clock is installed (the scenario runner does this), so a
Perfetto timeline shows the two tracks side by side.  See
``docs/observability.md`` for naming conventions and export formats.
"""

from repro.obs.spans import (
    NULL_SPAN,
    Span,
    Tracer,
    TRACER,
    span,
    enable_tracing,
    disable_tracing,
    tracing_enabled,
)
from repro.obs.metrics import (
    MetricsRegistry,
    REGISTRY,
    metrics,
)
from repro.obs.export import (
    spans_to_jsonl,
    write_spans_jsonl,
    chrome_trace_events,
    write_chrome_trace,
    top_spans,
    top_spans_report,
)

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "MetricsRegistry",
    "REGISTRY",
    "metrics",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "top_spans",
    "top_spans_report",
]
