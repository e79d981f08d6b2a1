"""Tests for AUD011 and ``trace_report``.

``trace_report`` parses every artifact with ``load_trace``, the one
header validator (its messages are pinned in
``tests/telemetry/test_export.py``); AUD011 walks the span tree of the
artifacts it accepts.
"""

import json

from repro.checks import AuditTarget, run_rules, trace_report
from repro.cli import main
from repro.telemetry import (
    ManualClock,
    MetricsRegistry,
    Tracer,
    chrome_events,
    render_json,
    trace_tree,
)


def findings_for(trace):
    return run_rules([AuditTarget("trace", "test.json", trace)])


def span_node(**overrides):
    node = {
        "name": "s",
        "start": 0.0,
        "end": 1.0,
        "status": "ok",
        "attributes": {},
        "metrics": {},
        "children": [],
    }
    node.update(overrides)
    return node


def write_artifact(tmp_path, payload):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def valid_trace(*spans):
    return {
        "format": "repro-trace",
        "version": 1,
        "spans": list(spans),
    }


class TestCleanArtifacts:
    def test_recorded_trace_is_clean(self):
        tracer = Tracer(
            clock=ManualClock(tick=1.0), registry=MetricsRegistry()
        )
        with tracer.span("outer", eps="1/8"):
            with tracer.span("inner", round=0):
                tracer.registry.cache("steps").miss()
        assert findings_for(trace_tree(tracer)) == []

    def test_error_status_is_clean(self):
        trace = valid_trace(span_node(status="error"))
        assert findings_for(trace) == []

    def test_empty_spans_list_is_clean(self):
        assert findings_for(valid_trace()) == []


class TestMalformedArtifacts:
    def test_open_span(self):
        findings = findings_for(valid_trace(span_node(end=None)))
        assert any("never closed" in f.message for f in findings)

    def test_negative_duration(self):
        findings = findings_for(
            valid_trace(span_node(start=2.0, end=1.0))
        )
        assert any("exceeds end" in f.message for f in findings)

    def test_non_numeric_timestamps(self):
        findings = findings_for(valid_trace(span_node(start="zero")))
        assert any("numeric" in f.message for f in findings)

    def test_child_escapes_parent_interval(self):
        child = span_node(name="child", start=0.5, end=3.0)
        findings = findings_for(
            valid_trace(span_node(name="parent", children=[child]))
        )
        assert any("escapes" in f.message for f in findings)

    def test_unserializable_attribute(self):
        findings = findings_for(
            valid_trace(span_node(attributes={"bad": object()}))
        )
        assert any("JSON-serializable" in f.message for f in findings)

    def test_non_numeric_metric(self):
        findings = findings_for(
            valid_trace(span_node(metrics={"m": "three"}))
        )
        assert any("numeric" in f.message for f in findings)

    def test_bad_status(self):
        findings = findings_for(valid_trace(span_node(status="maybe")))
        assert any("status" in f.message for f in findings)

    def test_missing_name(self):
        findings = findings_for(valid_trace(span_node(name="")))
        assert any("name" in f.message for f in findings)


class TestTraceReport:
    def test_file_roundtrip(self, tmp_path):
        tracer = Tracer(
            clock=ManualClock(tick=1.0), registry=MetricsRegistry()
        )
        with tracer.span("root"):
            pass
        path = tmp_path / "trace.json"
        path.write_text(render_json(tracer) + "\n", encoding="utf-8")
        report = trace_report([str(path)])
        assert report.is_clean()
        assert report.targets_audited == 1

    def test_unreadable_file_is_a_finding(self, tmp_path):
        report = trace_report([str(tmp_path / "missing.json")])
        assert not report.is_clean()
        assert any("cannot read" in f.message for f in report.findings)

    def test_non_json_file_is_a_finding(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        report = trace_report([str(path)])
        assert any("not JSON" in f.message for f in report.findings)

    def test_one_bad_artifact_does_not_mask_others(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps(valid_trace(span_node())), encoding="utf-8"
        )
        bad = tmp_path / "bad.json"
        bad.write_text("nope", encoding="utf-8")
        report = trace_report([str(bad), str(good)])
        assert report.targets_audited == 1  # the good one was audited
        assert len(report.findings) == 1  # only the bad one reported

    def test_wrong_format(self, tmp_path):
        path = write_artifact(tmp_path, {"format": "other", "version": 1})
        (finding,) = trace_report([path]).findings
        assert finding.rule_id == "AUD011"
        assert "unknown trace format" in finding.message

    def test_wrong_version(self, tmp_path):
        path = write_artifact(
            tmp_path, {"format": "repro-trace", "version": 2, "spans": []}
        )
        (finding,) = trace_report([path]).findings
        assert "unsupported trace version" in finding.message

    def test_missing_spans(self, tmp_path):
        path = write_artifact(
            tmp_path, {"format": "repro-trace", "version": 1}
        )
        (finding,) = trace_report([path]).findings
        assert "no 'spans' list" in finding.message

    def test_chrome_artifact_is_one_finding(self, tmp_path, capsys):
        tracer = Tracer(
            clock=ManualClock(tick=1.0), registry=MetricsRegistry()
        )
        with tracer.span("root"):
            pass
        path = write_artifact(tmp_path, chrome_events(tracer))
        report = trace_report([path])
        assert report.targets_audited == 0
        (finding,) = report.findings
        assert finding.rule_id == "AUD011"
        assert "--trace-format json" in finding.message
        assert main(["check", "--trace", path]) == 1
        assert "--trace-format json" in capsys.readouterr().out
