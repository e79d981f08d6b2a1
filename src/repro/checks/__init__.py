"""Static analysis for the proof machine: ``repro check``.

Two heads share one :class:`~repro.checks.findings.Finding`
vocabulary and one CLI:

* **Domain invariant auditor** (:mod:`repro.checks.rules`,
  :mod:`repro.checks.targets`, :mod:`repro.checks.audit`) — composable
  ``AUD00x`` rules over *live objects*: chromaticity and facet
  maximality of complexes, carrier-map monotonicity and name
  preservation, one-round protocol structure and solo idempotence, and
  task and closure well-formedness (Theorem 1).

* **AST lint** (:mod:`repro.checks.astlint`) — ``RPR00x`` rules over
  source code: interning safety, exception hygiene on solver hot paths,
  and no ambient nondeterminism (unseeded ``random``, wall-clock reads,
  ``key=id`` sorts) in ``repro.core``/``repro.topology``.

Every finding is an error.  Run ``repro check --all`` to audit every
target group and ``repro check --lint src/`` to lint the tree; tier-1
runs both as self-tests.
"""

from repro.checks.astlint import (
    LINT_RULES,
    LintContext,
    LintRule,
    lint_paths,
    lint_source,
)
from repro.checks.audit import CheckReport, audit_all, lint_report
from repro.checks.findings import Finding, sort_findings
from repro.checks.reporters import render_text
from repro.checks.rules import (
    RULES,
    AuditRule,
    AuditTarget,
    rules_for_kind,
    run_rules,
)

__all__ = [
    "Finding",
    "sort_findings",
    "AuditRule",
    "AuditTarget",
    "RULES",
    "rules_for_kind",
    "run_rules",
    "LintContext",
    "LintRule",
    "LINT_RULES",
    "lint_source",
    "lint_paths",
    "CheckReport",
    "audit_all",
    "lint_report",
    "render_text",
]
