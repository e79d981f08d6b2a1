"""Structured results of the AST lint.

The lint (:mod:`repro.checks.astlint`) reports violations as
:class:`Finding` records: a rule identifier, the source location of the
offence (``src/repro/foo.py:12``), and a human-readable explanation.

Every finding is an error: ``repro check --lint`` exits 1 on any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Finding", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One violation reported by a lint rule.

    Attributes
    ----------
    rule_id:
        The stable identifier of the rule that fired (``RPR00x``).
    path:
        Where the violation lives, as ``file:line``.
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
    """
    base, _, line = path.rpartition(":")
    return base, int(line)


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Order findings by path, line, rule id, then message.

    The one ordering the report uses, so its output is stable across
    runs and across engines.
    """
    return sorted(
        findings,
        key=lambda f: (*_path_key(f.path), f.rule_id, f.message),
    )
