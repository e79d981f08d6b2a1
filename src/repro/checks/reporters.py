"""Text and JSON reporters for :class:`~repro.checks.audit.CheckReport`.

The text reporter reuses the fixed-width table engine of
:mod:`repro.analysis.reporting`, so audit output matches the look of the
experiment tables; the JSON reporter emits a stable machine-readable
document for CI annotation tooling.
"""

from __future__ import annotations

import json

from repro.analysis.reporting import render_rows
from repro.checks.audit import CheckReport
from repro.checks.findings import sort_findings

__all__ = ["render_text", "render_json"]


def _summary_line(report: CheckReport) -> str:
    pieces = []
    if report.targets_audited:
        pieces.append(f"{report.targets_audited} targets audited")
    if report.experiments:
        pieces.append(f"{len(report.experiments)} experiments")
    if report.files_linted:
        pieces.append(f"{report.files_linted} files linted")
    pieces.append(
        "clean"
        if report.is_clean()
        else f"{len(report.findings)} finding(s), worst: {report.worst}"
    )
    return ", ".join(pieces)


def render_text(report: CheckReport) -> str:
    """Render a report as a fixed-width table plus a summary line."""
    if report.is_clean():
        return f"repro check {report.scope}: {_summary_line(report)}"
    table = render_rows(
        f"repro check {report.scope}",
        (
            (f.rule_id, str(f.severity), f.path, f.message)
            for f in sort_findings(report.findings)
        ),
        headers=("rule", "severity", "path", "message"),
    )
    return f"{table}\n\n{_summary_line(report)}"


def render_json(report: CheckReport) -> str:
    """Render a report as a stable JSON document."""
    document = {
        "scope": report.scope,
        "targets_audited": report.targets_audited,
        "files_linted": report.files_linted,
        "experiments": list(report.experiments),
        "clean": report.is_clean(),
        "worst_severity": str(report.worst),
        "findings": [
            finding.as_dict()
            for finding in sort_findings(report.findings)
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
