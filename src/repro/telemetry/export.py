"""Trace exporters: the JSON span tree and its text summary.

Two renderings of one recorded :class:`~repro.telemetry.tracer.Tracer`:

* :func:`render_json` — the canonical ``repro-trace`` JSON span tree.
  Deterministic (sorted keys, stable child order); this is the artifact
  :func:`write_trace` writes, ``repro trace summarize`` consumes and
  :func:`load_trace` validates.
* :func:`render_text` — a human-readable top-N *self-time* table:
  per span name, the time spent in spans of that name minus the time
  spent in their child spans, which is what actually identifies the
  dominating phase of a run.

Both exporters also accept an already-parsed span tree (the dict
produced by :func:`trace_tree` / :func:`load_trace`), so the summary CLI
works on artifacts recorded by an earlier process.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional, Union

from repro.errors import TelemetryError
from repro.tables import render_rows
from repro.telemetry.tracer import _VERBATIM, Span, Tracer

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "span_node",
    "trace_tree",
    "render_json",
    "self_time_table",
    "render_text",
    "load_trace",
    "write_trace",
]

#: The ``format`` field of the canonical JSON artifact.
TRACE_FORMAT = "repro-trace"
#: Schema version of the canonical JSON artifact.
TRACE_VERSION = 1

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
def _check_span(
    node: Any, where: str, parent: Optional[tuple[float, float]]
) -> None:
    """Validate one span node and its subtree, raising at the first defect.

    A span is named and closed with finite ``start ≤ end`` inside its
    parent's interval, has status ``ok``/``error`` and scalar attributes
    (what the tracer records).  Keys it does not check are ignored.
    """
    if not isinstance(node, dict):
        raise TelemetryError(
            f"{where}: span node is {type(node).__name__}, not an object"
        )
    name = node.get("name")
    if not isinstance(name, str) or not name:
        raise TelemetryError(f"{where}: span has no non-empty string 'name'")
    where = f"{where}[{name}]"
    start, end = node.get("start"), node.get("end")
    if end is None:
        raise TelemetryError(
            f"{where}: span was never closed (end is null) — the traced "
            "region did not finish"
        )
    if not all(
        isinstance(t, (int, float)) and math.isfinite(t) for t in (start, end)
    ):
        raise TelemetryError(
            f"{where}: start/end must be finite numeric seconds, got "
            f"{start!r}/{end!r}"
        )
    if start > end:
        raise TelemetryError(
            f"{where}: start {start} exceeds end {end} (negative duration)"
        )
    if parent is not None and (start < parent[0] or end > parent[1]):
        raise TelemetryError(
            f"{where}: child interval [{start}, {end}] escapes its "
            f"parent's [{parent[0]}, {parent[1]}]"
        )
    status = node.get("status")
    if status not in ("ok", "error"):
        raise TelemetryError(
            f"{where}: status must be 'ok' or 'error', got {status!r}"
        )
    attributes = node.get("attributes", {})
    if not isinstance(attributes, dict):
        raise TelemetryError(f"{where}: attributes must be an object")
    for key, value in attributes.items():
        if not isinstance(value, _VERBATIM):
            raise TelemetryError(
                f"{where}: attribute {key!r} is a "
                f"{type(value).__name__}, not a JSON scalar"
            )
    children = node.get("children", [])
    if not isinstance(children, list):
        raise TelemetryError(f"{where}: children must be a list")
    for position, child in enumerate(children):
        _check_span(child, f"{where}.children[{position}]", (start, end))


def load_trace(text: str) -> dict[str, Any]:
    """Parse and validate a ``repro-trace`` artifact.

    Raises :class:`~repro.errors.TelemetryError` with a one-line cause on
    malformed JSON, Chrome-format artifacts (which carry no span tree),
    unknown formats/versions, and the first malformed span node (see
    :func:`_check_span`), so every consumer reads a well-formed tree.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise TelemetryError(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TelemetryError("trace artifact must be a JSON object")
    if "traceEvents" in payload and "format" not in payload:
        raise TelemetryError(
            "this is a Chrome trace-event artifact, which has no span "
            "tree; record a repro-trace one with --trace PATH"
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
    for position, root in enumerate(payload["spans"]):
        _check_span(root, f"spans[{position}]", None)
    return payload


def write_trace(path: str, trace: TraceInput) -> None:
    """Write the canonical JSON span tree of ``trace`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_json(trace) + "\n")
