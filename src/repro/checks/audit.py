"""The audit driver: experiments in, findings out.

Glues the three layers of the checks subsystem together: resolve
experiment identifiers to audit targets (:mod:`repro.checks.targets`),
run every applicable rule (:mod:`repro.checks.rules`), and package the
results as a :class:`CheckReport` for the reporters and the CLI exit
policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.checks.astlint import iter_python_files, lint_paths
from repro.checks.findings import Finding, Severity, max_severity
from repro.checks.rules import AuditTarget, run_rules
from repro.checks.targets import targets_for_all, targets_for_experiment
from repro.experiments.registry import EXPERIMENTS

__all__ = [
    "CheckReport",
    "audit_experiments",
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
    experiments: tuple[str, ...] = field(default_factory=tuple)

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
            experiments=self.experiments + other.experiments,
        )


def audit_experiments(identifiers: Sequence[str]) -> CheckReport:
    """Audit the targets of the given experiment ids (deduplicated)."""
    resolved = [identifier.upper() for identifier in identifiers]
    targets: list[AuditTarget] = []
    seen_paths: set[str] = set()
    for identifier in resolved:
        for target in targets_for_experiment(identifier):
            if target.path not in seen_paths:
                seen_paths.add(target.path)
                targets.append(target)
    findings = run_rules(targets)
    return CheckReport(
        scope=f"audit[{', '.join(resolved)}]",
        findings=tuple(findings),
        targets_audited=len(targets),
        experiments=tuple(resolved),
    )


def audit_all() -> CheckReport:
    """Audit the targets of every registered experiment."""
    targets = targets_for_all()
    findings = run_rules(targets)
    return CheckReport(
        scope="audit[--all]",
        findings=tuple(findings),
        targets_audited=len(targets),
        experiments=tuple(
            sorted(EXPERIMENTS, key=lambda e: int(e[1:]))
        ),
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

    Unreadable or non-JSON files become ``AUD011`` findings rather than
    raising, so one bad artifact in a batch does not mask the others.
    """
    import json

    resolved = list(paths)
    findings: list[Finding] = []
    targets: list[AuditTarget] = []
    for path in resolved:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.loads(handle.read())
        except OSError as exc:
            findings.append(
                Finding(
                    "AUD011",
                    Severity.ERROR,
                    path,
                    f"cannot read trace artifact: {exc}",
                )
            )
            continue
        except ValueError as exc:
            findings.append(
                Finding(
                    "AUD011",
                    Severity.ERROR,
                    path,
                    f"trace artifact is not JSON: {exc}",
                )
            )
            continue
        targets.append(AuditTarget("trace", path, payload))
    findings.extend(run_rules(targets))
    return CheckReport(
        scope=f"trace[{', '.join(resolved)}]",
        findings=tuple(findings),
        targets_audited=len(targets),
    )
