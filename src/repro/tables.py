"""Plain-text fixed-width tables.

The benchmark harness prints, for every reproduced artifact, a
"paper vs. measured" table; the CLI, the chaos report and ``repro trace
summarize`` print tables too.  This module renders them without any
third-party dependency and in a stable format so EXPERIMENTS.md diffs stay
readable.  It imports nothing from :mod:`repro`, so every layer can
import it at module level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["ExperimentRow", "render_table", "render_rows"]


@dataclass(frozen=True)
class ExperimentRow:
    """One row of a paper-vs-measured table."""

    instance: str
    paper: str
    measured: str
    match: bool

    def cells(self) -> Sequence[str]:
        """The row's rendered cells."""
        return (
            self.instance,
            self.paper,
            self.measured,
            "ok" if self.match else "MISMATCH",
        )


def render_rows(
    title: str,
    rows: Iterable[Sequence[str]],
    headers: Sequence[str],
) -> str:
    """Render arbitrary cell rows as a fixed-width table with a title line.

    The generic engine behind :func:`render_table`; the chaos report
    and ``repro trace summarize`` reuse it.
    """
    materialized: list[Sequence[str]] = [tuple(headers)]
    materialized.extend(tuple(row) for row in rows)
    widths = [
        max(len(str(row[col])) for row in materialized)
        for col in range(len(headers))
    ]

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            str(cell).ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [title, "-" * len(title), fmt(materialized[0])]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt(cells) for cells in materialized[1:])
    return "\n".join(lines)


def render_table(
    title: str,
    rows: Iterable[ExperimentRow],
    headers: Sequence[str] = ("instance", "paper", "measured", "verdict"),
) -> str:
    """Render a fixed-width paper-vs-measured table with a title line.

    Returns the table as a string; callers print it (benchmarks) or write
    it to EXPERIMENTS.md.
    """
    return render_rows(title, (row.cells() for row in rows), headers)
