"""``repro trace summarize`` on a trace artifact it cannot use.

``telemetry.load_trace`` is the one validator of the format (its cases
are in ``tests/telemetry/test_export.py``), and ``repro trace
summarize`` reports a file it cannot read or that ``load_trace`` rejects
as one line with exit 1.  These tests pin that report, one artifact
file per case.
"""

import json

import pytest

from repro.cli import main
from repro.telemetry import (
    ManualClock,
    Tracer,
    render_json,
)


def recorded_tracer():
    tracer = Tracer(clock=ManualClock(tick=1.0))
    with tracer.span("root"):
        pass
    return tracer


def write_artifact(tmp_path, payload):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def finding(path):
    """The one-line report of ``repro trace summarize`` on ``path``."""
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "summarize", path])
    message = excinfo.value.code
    assert isinstance(message, str)  # a string exit code exits 1
    assert "\n" not in message
    assert repr(path) in message
    return message


class TestTraceReport:
    def test_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(
            render_json(recorded_tracer()) + "\n", encoding="utf-8"
        )
        assert main(["trace", "summarize", str(path)]) == 0
        assert "root" in capsys.readouterr().out

    def test_unreadable_file_is_a_finding(self, tmp_path):
        message = finding(str(tmp_path / "missing.json"))
        assert message.startswith("cannot read trace ")

    def test_non_json_file_is_a_finding(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        message = finding(str(path))
        assert message.startswith("invalid trace ")
        assert "not JSON" in message

    def test_wrong_format(self, tmp_path):
        path = write_artifact(tmp_path, {"format": "other", "version": 1})
        assert "unknown trace format" in finding(path)

    def test_wrong_version(self, tmp_path):
        path = write_artifact(
            tmp_path, {"format": "repro-trace", "version": 2, "spans": []}
        )
        assert "unsupported trace version" in finding(path)

    def test_missing_spans(self, tmp_path):
        path = write_artifact(
            tmp_path, {"format": "repro-trace", "version": 1}
        )
        assert "no 'spans' list" in finding(path)

    def test_chrome_artifact_is_one_finding(self, tmp_path, capsys):
        path = write_artifact(tmp_path, {"traceEvents": []})
        message = finding(path)
        assert message.startswith("invalid trace ")
        assert capsys.readouterr().out == ""
