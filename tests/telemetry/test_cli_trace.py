"""CLI round-trip: --trace artifacts through ``repro trace summarize``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry import NOOP_SPAN, load_trace, span


class TestExperimentTrace:
    def test_roundtrip_through_summarize(self, tmp_path, capsys):
        artifact = tmp_path / "e9.trace.json"
        assert main(["experiment", "E9", "--trace", str(artifact)]) == 0
        # The tracer was uninstalled again.
        assert span("probe") is NOOP_SPAN

        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-trace"
        assert payload["spans"][0]["name"] == "experiment/E9"

        capsys.readouterr()
        assert main(["trace", "summarize", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "experiment/E9" in out
        assert "self ms" in out

    def test_run_command_traced(self, tmp_path):
        artifact = tmp_path / "run.trace.json"
        assert (
            main(
                [
                    "run",
                    "halving",
                    "--inputs",
                    "0,1",
                    "--trace",
                    str(artifact),
                ]
            )
            == 0
        )
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-trace"


class TestCheckTrace:
    """The check of an artifact is ``load_trace``, which summarize runs."""

    def test_valid_artifact_is_clean(self, tmp_path, capsys):
        artifact = tmp_path / "trace.json"
        assert main(["experiment", "E9", "--trace", str(artifact)]) == 0
        capsys.readouterr()
        trace = load_trace(artifact.read_text(encoding="utf-8"))
        assert trace["spans"][0]["name"] == "experiment/E9"
        assert main(["trace", "summarize", str(artifact)]) == 0
        captured = capsys.readouterr()
        assert "experiment/E9" in captured.out
        assert captured.err == ""


class TestSummarizeErrors:
    def test_missing_file_exits(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["trace", "summarize", "/nonexistent/trace.json"])

    @pytest.mark.parametrize("top", ["0", "-3", "two"])
    def test_top_below_one_is_a_usage_error(self, tmp_path, capsys, top):
        # A valid artifact: only the option value is malformed.
        artifact = tmp_path / "trace.json"
        assert main(["experiment", "E9", "--trace", str(artifact)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "summarize", str(artifact), "--top", top])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --top: {top!r} is not a positive integer" in (
            captured.err
        )

    def test_chrome_artifact_rejected_with_hint(self, tmp_path):
        artifact = tmp_path / "chrome.json"
        artifact.write_text(
            json.dumps({"traceEvents": []}), encoding="utf-8"
        )
        with pytest.raises(SystemExit, match="Chrome"):
            main(["trace", "summarize", str(artifact)])

    @pytest.mark.parametrize(
        "span",
        [
            {"name": "open", "start": 0.0, "end": None, "status": "ok"},
            {"name": "text", "start": 0.0, "end": "z", "status": "ok"},
            7,
        ],
        ids=["end-null", "end-text", "span-not-object"],
    )
    def test_malformed_span_tree_is_one_line(self, tmp_path, span):
        # The header is valid; only the span tree is malformed.
        artifact = tmp_path / "bad.json"
        artifact.write_text(
            json.dumps(
                {"format": "repro-trace", "version": 1, "spans": [span]}
            ),
            encoding="utf-8",
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        argv = ["trace", "summarize", str(artifact)]
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        assert completed.stderr.startswith("invalid trace ")
        assert completed.stderr.count("\n") == 1
