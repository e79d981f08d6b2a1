"""Trace exporters: JSON span tree, Chrome trace events, text summary.

Three renderings of one recorded :class:`~repro.telemetry.tracer.Tracer`:

* :func:`render_json` — the canonical ``repro-trace`` JSON span tree.
  Deterministic (sorted keys, stable child order); this is the format
  ``repro trace summarize`` consumes and audit rule AUD011 validates.
* :func:`render_chrome` — Chrome trace-event JSON (complete ``"X"``
  events, microsecond timestamps) loadable in ``chrome://tracing`` and
  `Perfetto <https://ui.perfetto.dev>`_.
* :func:`render_text` — a human-readable top-N *self-time* table:
  per span name, the time spent in spans of that name minus the time
  spent in their child spans, which is what actually identifies the
  dominating phase of a run.

Every exporter also accepts an already-parsed span tree (the dict
produced by :func:`trace_tree` / :func:`load_trace`), so the summary CLI
works on artifacts recorded by an earlier process.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Union

from repro.errors import TelemetryError
from repro.telemetry.tracer import Span, Tracer

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "span_node",
    "trace_tree",
    "render_json",
    "chrome_events",
    "render_chrome",
    "self_time_table",
    "render_text",
    "load_trace",
    "write_trace",
]

#: The ``format`` field of the canonical JSON artifact.
TRACE_FORMAT = "repro-trace"
#: Schema version of the canonical JSON artifact.
TRACE_VERSION = 1

#: Where the exporters keep timestamps: seconds (JSON tree) vs
#: microseconds (Chrome trace events).
_MICROSECONDS = 1_000_000.0

TraceInput = Union[Tracer, dict]


def span_node(entry: Span) -> dict[str, Any]:
    """One span as a JSON-ready node (children recursively included)."""
    if not entry.closed:
        raise TelemetryError(
            f"span {entry.name!r} is still open; finish the traced "
            "region before exporting"
        )
    return {
        "name": entry.name,
        "start": entry.start,
        "end": entry.end,
        "status": entry.status,
        "attributes": dict(entry.attributes),
        "metrics": dict(entry.metrics),
        "children": [span_node(child) for child in entry.children],
    }


def trace_tree(tracer: Tracer) -> dict[str, Any]:
    """The canonical ``repro-trace`` artifact of a finished tracer."""
    if not tracer.finished():
        open_span = tracer.active
        assert open_span is not None
        raise TelemetryError(
            f"cannot export: span {open_span.name!r} is still open"
        )
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "spans": [span_node(root) for root in tracer.roots],
    }


def _as_tree(trace: TraceInput) -> dict[str, Any]:
    if isinstance(trace, Tracer):
        return trace_tree(trace)
    return trace


def render_json(trace: TraceInput) -> str:
    """Serialize the canonical span tree deterministically."""
    return json.dumps(_as_tree(trace), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def _chrome_walk(
    node: dict[str, Any], events: list[dict[str, Any]]
) -> None:
    args: dict[str, Any] = dict(node.get("attributes", {}))
    for key, value in node.get("metrics", {}).items():
        args[f"metric:{key}"] = value
    start = float(node["start"])
    end = float(node["end"])
    events.append(
        {
            "name": node["name"],
            "cat": "repro",
            "ph": "X",
            "ts": start * _MICROSECONDS,
            "dur": (end - start) * _MICROSECONDS,
            "pid": 1,
            "tid": 1,
            "args": args,
        }
    )
    for child in node.get("children", ()):
        _chrome_walk(child, events)


def chrome_events(trace: TraceInput) -> dict[str, Any]:
    """The trace as a Chrome trace-event object (``{"traceEvents": …}``).

    Complete events (``ph: "X"``) with microsecond ``ts``/``dur``; the
    viewer reconstructs nesting from the containment of time ranges on
    one ``pid``/``tid``, which holds by construction for a span tree.
    """
    events: list[dict[str, Any]] = []
    for root in _as_tree(trace)["spans"]:
        _chrome_walk(root, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_chrome(trace: TraceInput) -> str:
    """Serialize the Chrome trace-event rendering deterministically."""
    return json.dumps(chrome_events(trace), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Text summary (top-N self time)
# ----------------------------------------------------------------------
def _self_time_walk(
    node: dict[str, Any], totals: dict[str, list[float]]
) -> None:
    duration = float(node["end"]) - float(node["start"])
    child_time = 0.0
    for child in node.get("children", ()):
        child_time += float(child["end"]) - float(child["start"])
        _self_time_walk(child, totals)
    row = totals.setdefault(node["name"], [0.0, 0.0, 0.0])
    row[0] += 1  # count
    row[1] += duration  # total
    row[2] += max(duration - child_time, 0.0)  # self


def self_time_table(
    trace: TraceInput,
) -> list[tuple[str, int, float, float]]:
    """``(name, count, total_s, self_s)`` rows, sorted by self time.

    *Self time* of a span is its duration minus the durations of its
    direct children; summed per span name, it is exactly the wall time
    attributable to that phase itself, which a plain total would
    double-count across nesting levels.
    """
    totals: dict[str, list[float]] = {}
    for root in _as_tree(trace)["spans"]:
        _self_time_walk(root, totals)
    rows = [
        (name, int(values[0]), values[1], values[2])
        for name, values in totals.items()
    ]
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows


def render_text(trace: TraceInput, top: int = 15) -> str:
    """The top-``top`` self-time table plus a one-line trace census."""
    # Imported lazily: repro.analysis imports repro.telemetry (the cache
    # report reads the registry) — a module-level import here would
    # close that cycle during package initialization.
    from repro.analysis.reporting import render_rows

    tree = _as_tree(trace)
    rows = self_time_table(tree)
    span_count = sum(row[1] for row in rows)
    wall = sum(
        float(root["end"]) - float(root["start"])
        for root in tree["spans"]
    )
    kept = rows[: max(top, 0)]
    table = render_rows(
        f"trace summary — {span_count} spans, "
        f"{len(tree['spans'])} roots, {wall * 1000.0:.3f} ms wall",
        (
            (
                name,
                str(count),
                f"{total * 1000.0:.3f}",
                f"{self_ * 1000.0:.3f}",
                f"{(self_ / wall * 100.0) if wall else 0.0:.1f}%",
            )
            for name, count, total, self_ in kept
        ),
        ("span", "count", "total ms", "self ms", "self %"),
    )
    if len(rows) > len(kept):
        table += f"\n(+ {len(rows) - len(kept)} more span names)"
    return table


# ----------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------
def load_trace(text: str) -> dict[str, Any]:
    """Parse a ``repro-trace`` artifact, rejecting foreign payloads.

    Raises :class:`~repro.errors.TelemetryError` with a one-line cause on
    malformed JSON, Chrome-format artifacts (which carry no span tree),
    and unknown formats/versions.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise TelemetryError(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TelemetryError("trace artifact must be a JSON object")
    if "traceEvents" in payload and "format" not in payload:
        raise TelemetryError(
            "this is a Chrome trace-event artifact; summarize needs the "
            "canonical span tree (--trace-format json)"
        )
    if payload.get("format") != TRACE_FORMAT:
        raise TelemetryError(
            f"unknown trace format {payload.get('format')!r} "
            f"(expected {TRACE_FORMAT!r})"
        )
    if payload.get("version") != TRACE_VERSION:
        raise TelemetryError(
            f"unsupported trace version {payload.get('version')!r} "
            f"(expected {TRACE_VERSION})"
        )
    if not isinstance(payload.get("spans"), list):
        raise TelemetryError("trace artifact has no 'spans' list")
    return payload


_RENDERERS = {
    "json": render_json,
    "chrome": render_chrome,
    "text": render_text,
}


def write_trace(
    path: str, trace: TraceInput, fmt: str = "json", top: Optional[int] = None
) -> None:
    """Render ``trace`` in the given format and write it to ``path``."""
    if fmt not in _RENDERERS:
        known = ", ".join(sorted(_RENDERERS))
        raise TelemetryError(
            f"unknown trace format {fmt!r}; known formats: {known}"
        )
    if fmt == "text" and top is not None:
        rendered = render_text(trace, top=top)
    else:
        rendered = _RENDERERS[fmt](trace)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rendered + "\n")
