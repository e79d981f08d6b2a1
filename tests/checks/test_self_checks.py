"""The codebase passes its own static analysis (tier-1 gate).

Two self-tests: the AST lint over ``src/`` must be clean, and the domain
audit over every target group must be clean.  These
are the same checks CI runs via ``repro check``; keeping them in tier-1
means a violation fails the default test run, not just the CI job.
"""

from pathlib import Path

from repro.checks import audit_all, lint_report
from repro.checks.targets import TARGET_GROUPS, build_group

SRC = Path(__file__).resolve().parents[2] / "src"


class TestSelfLint:
    def test_source_tree_lints_clean(self):
        report = lint_report([str(SRC)])
        assert report.files_linted > 0
        details = "\n".join(
            f"{f.rule_id} {f.path}: {f.message}" for f in report.findings
        )
        assert report.is_clean(), f"RPR violations in src/:\n{details}"


class TestSelfAudit:
    def test_groups_build_non_empty(self):
        for name in TARGET_GROUPS:
            assert build_group(name), f"group {name} built no targets"

    def test_full_audit_is_clean(self):
        report = audit_all()
        assert len(TARGET_GROUPS) == 10
        assert report.targets_audited == 62
        details = "\n".join(
            f"{f.rule_id} {f.path}: {f.message}" for f in report.findings
        )
        assert report.is_clean(), f"audit violations:\n{details}"
