"""The lint report of ``repro check --lint`` and its text rendering.

:func:`lint_report` runs the AST lint over files and directories and
packages its findings as a :class:`CheckReport`; :func:`render_text`
prints it through the fixed-width table engine of
:mod:`repro.analysis.reporting`, so lint output matches the look of the
experiment tables.  The CLI exits 1 on any finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.reporting import render_rows
from repro.checks.astlint import iter_python_files, lint_paths
from repro.checks.findings import Finding, sort_findings

__all__ = ["CheckReport", "lint_report", "render_text"]


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one ``repro check --lint`` invocation."""

    scope: str
    findings: tuple[Finding, ...]
    files_linted: int = 0

    def is_clean(self) -> bool:
        """``True`` iff no rule reported anything."""
        return not self.findings


def lint_report(paths: Iterable[str]) -> CheckReport:
    """Run the AST lint over the given files/directories."""
    resolved = list(paths)
    # Walk the trees once; lint_paths takes each file as its own path.
    files = [str(path) for path in iter_python_files(resolved)]
    return CheckReport(
        scope=f"lint[{', '.join(resolved)}]",
        findings=tuple(lint_paths(files)),
        files_linted=len(files),
    )


def _summary_line(report: CheckReport) -> str:
    pieces = []
    if report.files_linted:
        pieces.append(f"{report.files_linted} files linted")
    pieces.append(
        "clean" if report.is_clean() else f"{len(report.findings)} finding(s)"
    )
    return ", ".join(pieces)


def render_text(report: CheckReport) -> str:
    """Render a report as a fixed-width table plus a summary line."""
    if report.is_clean():
        return f"repro check {report.scope}: {_summary_line(report)}"
    table = render_rows(
        f"repro check {report.scope}",
        (
            (f.rule_id, f.path, f.message)
            for f in sort_findings(report.findings)
        ),
        headers=("rule", "path", "message"),
    )
    return f"{table}\n\n{_summary_line(report)}"
