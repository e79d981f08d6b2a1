"""The ``repro check`` CLI subcommand: scopes, formats, exit policy."""

import json
import textwrap

import pytest

from repro.cli import main

BROKEN_MODULE = textwrap.dedent(
    """
    def corrupt(complex_, facets):
        complex_._facets = facets

    def swallow(step):
        try:
            step()
        except ValueError:
            pass
    """
)


def write_broken_module(root):
    """Write BROKEN_MODULE where the lint treats it as ``repro.core``.

    RPR004 only fires in the solver hot packages, and the lint derives
    the module name from the path.
    """
    package = root / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(BROKEN_MODULE)


class TestAuditScopes:
    def test_all_experiments_exit_zero(self, capsys):
        assert main(["check", "--all"]) == 0
        out = capsys.readouterr().out
        assert "audit[--all]: 62 targets audited, clean" in out

    def test_bare_check_defaults_to_all(self, capsys):
        assert main(["check"]) == 0
        assert "audit[--all]" in capsys.readouterr().out

    def test_experiment_ids_are_usage_errors(self, capsys):
        # The audit has no per-experiment scope: every id is rejected.
        for argv in (["check", "E1"], ["check", "E99"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLintScope:
    def test_lint_violations_fail(self, tmp_path, capsys):
        write_broken_module(tmp_path)
        assert main(["check", "--lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR004" in out

    def test_fail_on_policy_downgrades(self, tmp_path, capsys):
        write_broken_module(tmp_path)
        # Findings are errors; asking to fail only above error never fires.
        assert (
            main(["check", "--lint", str(tmp_path), "--fail-on", "error"])
            == 1
        )
        capsys.readouterr()
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("X = 1\n")
        assert main(["check", "--lint", str(clean)]) == 0

    def test_invalid_fail_on_rejected(self):
        try:
            main(["check", "--fail-on", "fatal"])
        except SystemExit as exc:
            assert "unknown severity" in str(exc)
        else:
            raise AssertionError("expected SystemExit")


class TestJsonFormat:
    def test_json_document_shape(self, capsys):
        assert main(["check", "--all", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is True
        assert document["scope"] == "audit[--all]"
        assert document["findings"] == []
        assert document["targets_audited"] == 62

    def test_json_reports_lint_findings(self, tmp_path, capsys):
        write_broken_module(tmp_path)
        assert (
            main(["check", "--lint", str(tmp_path), "--format", "json"])
            == 1
        )
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is False
        assert document["worst_severity"] == "error"
        rules = {finding["rule"] for finding in document["findings"]}
        assert {"RPR001", "RPR004"} <= rules

    def test_combined_lint_and_audit_scope(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("X = 1\n")
        assert (
            main(["check", "--all", "--lint", str(clean)])
            == 0
        )
        out = capsys.readouterr().out
        assert "lint[" in out
        assert "audit[--all]" in out
