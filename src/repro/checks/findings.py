"""Structured results of the static-analysis subsystem.

Both heads of :mod:`repro.checks` — the domain invariant auditor
(:mod:`repro.checks.rules`) and the AST lint (:mod:`repro.checks.astlint`)
— report violations as :class:`Finding` records: a rule identifier, the
path of the offending object (an audit-target path such as
``tasks/aa[n=2]/Δ`` or a source location such as
``src/repro/foo.py:12``), and a human-readable explanation.

Every finding is an error: ``repro check`` exits 1 on any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Finding", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One violation reported by an audit or lint rule.

    Attributes
    ----------
    rule_id:
        The stable identifier of the rule that fired (``AUD00x`` for domain
        audit rules, ``RPR00x`` for AST lint rules).
    path:
        Where the violation lives: an audit-target path for live objects,
        or ``file:line`` for source findings.
    message:
        Human-readable explanation of what is wrong and why it matters.
    """

    rule_id: str
    path: str
    message: str


def _path_key(path: str) -> tuple[str, int]:
    """Split a ``file:line`` path into a (file, numeric line) sort key.

    Lexicographic sorting of the raw path puts ``foo.py:10`` before
    ``foo.py:9``; the numeric split keeps findings in source order.
    Paths without a line component (audit-target paths) sort by their
    text with line 0.
    """
    base, sep, tail = path.rpartition(":")
    if sep and tail.isdigit():
        return base, int(tail)
    return path, 0


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Order findings by path, line, rule id, then message.

    The one ordering the report uses, so its output is stable across
    runs and across engines.
    """
    return sorted(
        findings,
        key=lambda f: (*_path_key(f.path), f.rule_id, f.message),
    )
