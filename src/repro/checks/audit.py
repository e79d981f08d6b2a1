"""The audit driver: targets in, findings out.

Glues the three layers of the checks subsystem together: build the audit
targets (:mod:`repro.checks.targets`), run every applicable rule
(:mod:`repro.checks.rules`), and package the results as a
:class:`CheckReport` for the reporter and the CLI, which exits 1 on any
finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.checks.astlint import iter_python_files, lint_paths
from repro.checks.findings import Finding
from repro.checks.rules import run_rules
from repro.checks.targets import targets_for_all

__all__ = [
    "CheckReport",
    "audit_all",
    "lint_report",
]


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one ``repro check`` invocation."""

    scope: str
    findings: tuple[Finding, ...]
    targets_audited: int = 0
    files_linted: int = 0

    def is_clean(self) -> bool:
        """``True`` iff no rule reported anything."""
        return not self.findings

    def merged_with(self, other: "CheckReport") -> "CheckReport":
        """Combine two reports (e.g. an audit and a lint run)."""
        scope = f"{self.scope} + {other.scope}"
        return CheckReport(
            scope=scope,
            findings=self.findings + other.findings,
            targets_audited=self.targets_audited + other.targets_audited,
            files_linted=self.files_linted + other.files_linted,
        )


def audit_all() -> CheckReport:
    """Audit the targets of every group."""
    targets = targets_for_all()
    findings = run_rules(targets)
    return CheckReport(
        scope="audit[--all]",
        findings=tuple(findings),
        targets_audited=len(targets),
    )


def lint_report(paths: Iterable[str]) -> CheckReport:
    """Run the AST lint over the given files/directories."""
    resolved = list(paths)
    files = sum(1 for _ in iter_python_files(resolved))
    findings = lint_paths(resolved)
    return CheckReport(
        scope=f"lint[{', '.join(resolved)}]",
        findings=tuple(findings),
        files_linted=files,
    )
