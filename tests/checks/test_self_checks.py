"""The codebase passes its own lint (tier-1 gate).

The AST lint over ``src/`` must be clean.  It is the same check CI runs
via ``repro check --lint src/``; keeping it in tier-1 means a violation
fails the default test run, not just the CI job.
"""

from pathlib import Path

from repro.checks import lint_report

SRC = Path(__file__).resolve().parents[2] / "src"


class TestSelfLint:
    def test_source_tree_lints_clean(self):
        report = lint_report([str(SRC)])
        assert report.files_linted > 0
        details = "\n".join(
            f"{f.rule_id} {f.path}: {f.message}" for f in report.findings
        )
        assert report.is_clean(), f"RPR violations in src/:\n{details}"
