"""The text reporter for :class:`~repro.checks.audit.CheckReport`.

It reuses the fixed-width table engine of :mod:`repro.analysis.reporting`,
so audit output matches the look of the experiment tables.
"""

from __future__ import annotations

from repro.analysis.reporting import render_rows
from repro.checks.audit import CheckReport
from repro.checks.findings import sort_findings

__all__ = ["render_text"]


def _summary_line(report: CheckReport) -> str:
    pieces = []
    if report.targets_audited:
        pieces.append(f"{report.targets_audited} targets audited")
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
