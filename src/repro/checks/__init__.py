"""Static analysis for the proof machine: ``repro check --lint``.

An AST lint (:mod:`repro.checks.astlint`) with ``RPR00x`` rules over
source code: interning safety, exception hygiene on solver hot paths,
and no ambient nondeterminism (unseeded ``random``, wall-clock reads,
``key=id`` sorts) in ``repro.core``/``repro.topology``.  Violations are
:class:`~repro.checks.findings.Finding` records, collected into a
:class:`~repro.checks.reporters.CheckReport`.

Every finding is an error.  Run ``repro check --lint src/`` to lint the
tree; tier-1 runs the same lint as a self-test.  The structural side
conditions of the paper's objects (chromatic complexes, name-preserving
``Δ``, solo executions, ``Δ ⊆ Δ'``) are gated by constructor checks and
tier-1 tests, not by this package.
"""

from repro.checks.astlint import (
    LINT_RULES,
    LintContext,
    LintRule,
    lint_paths,
    lint_source,
)
from repro.checks.findings import Finding, sort_findings
from repro.checks.reporters import CheckReport, lint_report, render_text

__all__ = [
    "Finding",
    "sort_findings",
    "LintContext",
    "LintRule",
    "LINT_RULES",
    "lint_source",
    "lint_paths",
    "CheckReport",
    "lint_report",
    "render_text",
]
