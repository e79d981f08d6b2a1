"""The audit driver: targets in, findings out.

Glues the three layers of the checks subsystem together: build the audit
targets (:mod:`repro.checks.targets`), run every applicable rule
(:mod:`repro.checks.rules`), and package the results as a
:class:`CheckReport` for the reporters and the CLI exit policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.checks.astlint import iter_python_files, lint_paths
from repro.checks.findings import Finding, Severity, max_severity
from repro.checks.rules import AuditTarget, run_rules
from repro.checks.targets import targets_for_all
from repro.errors import TelemetryError
from repro.telemetry import load_trace

__all__ = [
    "CheckReport",
    "audit_all",
    "lint_report",
    "trace_report",
]


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one ``repro check`` invocation."""

    scope: str
    findings: tuple[Finding, ...]
    targets_audited: int = 0
    files_linted: int = 0

    @property
    def worst(self) -> Severity:
        """The worst severity reported (``INFO`` when clean)."""
        return max_severity(self.findings)

    def is_clean(self) -> bool:
        """``True`` iff no rule reported anything."""
        return not self.findings

    def exit_code(self, fail_on: Severity) -> int:
        """``1`` iff some finding reaches the ``fail_on`` severity."""
        return (
            1
            if any(f.severity >= fail_on for f in self.findings)
            else 0
        )

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


def trace_report(paths: Iterable[str]) -> CheckReport:
    """Audit telemetry trace artifacts (AUD011) from files on disk.

    Each file is parsed by :func:`~repro.telemetry.export.load_trace`,
    the one header validator; an unreadable file or a rejected artifact
    becomes one ``AUD011`` finding rather than raising, so one bad
    artifact in a batch does not mask the others.
    """
    resolved = list(paths)
    findings: list[Finding] = []
    targets: list[AuditTarget] = []
    for path in resolved:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = load_trace(handle.read())
            targets.append(AuditTarget("trace", path, payload))
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    "AUD011",
                    Severity.ERROR,
                    path,
                    f"cannot read trace artifact: {exc}",
                )
            )
        except TelemetryError as exc:
            findings.append(
                Finding("AUD011", Severity.ERROR, path, str(exc))
            )
    findings.extend(run_rules(targets))
    return CheckReport(
        scope=f"trace[{', '.join(resolved)}]",
        findings=tuple(findings),
        targets_audited=len(targets),
    )
