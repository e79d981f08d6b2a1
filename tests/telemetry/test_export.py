"""Tests for the trace exporters: JSON tree and text table."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    ManualClock,
    Tracer,
    load_trace,
    render_json,
    render_text,
    self_time_table,
    trace_tree,
)


def recorded_tracer():
    """A deterministic two-level trace: outer [0,3] with child [1,2]."""
    tracer = Tracer(clock=ManualClock(tick=1.0))
    with tracer.span("outer", phase="demo"):
        with tracer.span("inner", round=1):
            pass
    return tracer


class TestJsonTree:
    def test_schema(self):
        tree = trace_tree(recorded_tracer())
        assert tree["format"] == "repro-trace"
        assert tree["version"] == 1
        (outer,) = tree["spans"]
        assert outer["name"] == "outer"
        assert outer["status"] == "ok"
        assert outer["attributes"] == {"phase": "demo"}
        (inner,) = outer["children"]
        assert inner["attributes"] == {"round": 1}
        # Spans keep time and attributes; counts live in the registry.
        assert set(inner) == {
            "name", "start", "end", "status", "attributes", "children"
        }

    def test_render_is_deterministic_json(self):
        tracer = recorded_tracer()
        text = render_json(tracer)
        assert text == render_json(trace_tree(tracer))
        assert json.loads(text)["format"] == "repro-trace"

    def test_open_span_refuses_export(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        entry = tracer.span("open")
        entry.__enter__()
        with pytest.raises(TelemetryError):
            trace_tree(tracer)


class TestSelfTime:
    def test_self_excludes_children(self):
        rows = {
            name: (count, total, self_)
            for name, count, total, self_ in self_time_table(
                recorded_tracer()
            )
        }
        # outer spans [t, t+3] with inner [t+1, t+2]: 2 s self of 3 s.
        assert rows["outer"] == (1, 3.0, 2.0)
        assert rows["inner"] == (1, 1.0, 1.0)

    def test_render_text_table(self):
        text = render_text(recorded_tracer())
        assert "trace summary" in text
        assert "self ms" in text
        assert "outer" in text and "inner" in text

    def test_top_truncation(self):
        text = render_text(recorded_tracer(), top=1)
        assert "(+ 1 more span names)" in text


class TestLoadTrace:
    def test_roundtrip(self):
        tracer = recorded_tracer()
        loaded = load_trace(render_json(tracer))
        assert loaded == trace_tree(tracer)

    def test_rejects_non_json(self):
        with pytest.raises(TelemetryError, match="not JSON"):
            load_trace("not json at all")

    def test_rejects_chrome_artifact_with_hint(self):
        with pytest.raises(TelemetryError, match="Chrome"):
            load_trace(json.dumps({"traceEvents": []}))

    def test_rejects_unknown_format(self):
        with pytest.raises(TelemetryError, match="unknown trace format"):
            load_trace(json.dumps({"format": "other", "spans": []}))

    def test_rejects_unknown_version(self):
        with pytest.raises(TelemetryError, match="version"):
            load_trace(
                json.dumps(
                    {"format": "repro-trace", "version": 99, "spans": []}
                )
            )

    def test_rejects_missing_spans(self):
        with pytest.raises(TelemetryError, match="spans"):
            load_trace(json.dumps({"format": "repro-trace", "version": 1}))


def span(**overrides):
    node = {
        "name": "s",
        "start": 0.0,
        "end": 1.0,
        "status": "ok",
        "attributes": {},
        "children": [],
    }
    node.update(overrides)
    return node


def artifact_text(*spans):
    return json.dumps(
        {"format": "repro-trace", "version": 1, "spans": list(spans)}
    )


def load_spans(*spans):
    return load_trace(artifact_text(*spans))


class TestLoadTraceSpanTree:
    """``load_trace`` validates every span node, not only the header."""

    def test_recorded_trace_is_clean(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("outer", eps="1/8"):
            with tracer.span("inner", round=0):
                pass
        assert load_trace(render_json(tracer)) == trace_tree(tracer)

    def test_error_status_is_clean(self):
        load_spans(span(status="error"))

    def test_empty_spans_list_is_clean(self):
        assert load_spans()["spans"] == []

    def test_open_span(self):
        with pytest.raises(TelemetryError, match="never closed"):
            load_spans(span(end=None))

    def test_negative_duration(self):
        with pytest.raises(TelemetryError, match="exceeds end"):
            load_spans(span(start=2.0, end=1.0))

    def test_non_numeric_timestamps(self):
        with pytest.raises(TelemetryError, match="numeric seconds"):
            load_spans(span(start="zero"))

    def test_nan_timestamp(self):
        # json.loads accepts NaN, and NaN compares false with everything.
        text = artifact_text(span()).replace('"start": 0.0', '"start": NaN')
        with pytest.raises(TelemetryError, match="finite"):
            load_trace(text)

    def test_child_escapes_parent_interval(self):
        child = span(name="child", start=0.5, end=3.0)
        with pytest.raises(TelemetryError, match="escapes"):
            load_spans(span(name="parent", children=[child]))

    def test_unserializable_attribute(self):
        # Parsed JSON serializes by construction; an attribute must also
        # be a scalar, as the tracer records it.
        with pytest.raises(TelemetryError, match="not a JSON scalar"):
            load_spans(span(attributes={"bad": [1, 2]}))

    def test_non_numeric_metric(self):
        # Version-1 artifacts written before spans stopped carrying
        # counter deltas still load; keys the loader does not check are
        # passed through untouched.
        (root,) = load_spans(span(metrics={"m": "three"}))["spans"]
        assert root["metrics"] == {"m": "three"}

    def test_bad_status(self):
        with pytest.raises(TelemetryError, match="status"):
            load_spans(span(status="maybe"))

    def test_missing_name(self):
        with pytest.raises(TelemetryError, match="'name'"):
            load_spans(span(name=""))
