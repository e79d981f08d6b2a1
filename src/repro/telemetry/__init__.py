"""repro.telemetry — tracing, metrics, and profiling observability.

The observability layer of the proof machine, in three pieces:

* **spans** (:mod:`repro.telemetry.tracer`) — nested, exception-safe
  ``with span("closure/decide", …)`` regions carrying wall time from an
  injectable clock and attributes.  Disabled by default; the module-level
  :func:`span` fast path makes disabled telemetry effectively free on the
  hot loops.
* **metrics** (:mod:`repro.telemetry.metrics`) — the process-wide
  :class:`MetricsRegistry` of cache hit/miss tallies; the hot layers
  fetch theirs once with ``default_registry().cache(name)``.
* **exporters** (:mod:`repro.telemetry.export`) — the canonical JSON span
  tree and a top-N self-time text summary; surfaced on the CLI as
  ``repro run/experiment/chaos --trace PATH`` and
  ``repro trace summarize PATH``.

See docs/OBSERVABILITY.md for the span taxonomy and naming conventions.
"""

from repro.telemetry.clock import Clock, ManualClock, MonotonicClock
from repro.telemetry.export import (
    TRACE_FORMAT,
    TRACE_VERSION,
    load_trace,
    render_json,
    render_text,
    self_time_table,
    span_node,
    trace_tree,
    write_trace,
)
from repro.telemetry.metrics import (
    CacheCounter,
    MetricsRegistry,
    default_registry,
)
from repro.telemetry.tracer import (
    NOOP_SPAN,
    Span,
    SpanLike,
    Tracer,
    disable,
    enable,
    span,
    tracing,
)

__all__ = [
    # clocks
    "Clock",
    "ManualClock",
    "MonotonicClock",
    # metrics
    "CacheCounter",
    "MetricsRegistry",
    "default_registry",
    # tracing
    "NOOP_SPAN",
    "Span",
    "SpanLike",
    "Tracer",
    "disable",
    "enable",
    "span",
    "tracing",
    # export
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "load_trace",
    "render_json",
    "render_text",
    "self_time_table",
    "span_node",
    "trace_tree",
    "write_trace",
]
