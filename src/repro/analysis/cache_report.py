"""Cache-stats reporting for the memoized hot paths.

The substrate memoizes at four layers (one-round complexes per model,
view maps per participant set, ``P^(t)`` per protocol operator, closure
membership per ``(Δ(σ), τ)`` window); every layer reports into the
cache counters of :func:`repro.telemetry.default_registry`.  This module
turns those counters into rows and plain-text tables, in the same format
as the experiment tables, so benchmarks can record cache effectiveness
alongside the reproduced artifacts.

Typical use::

    registry = default_registry()
    before = registry.cache_snapshot()
    ...  # run the workload
    after = registry.cache_snapshot()
    print(render_cache_report(registry.cache_delta(before, after)))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.reporting import render_table
from repro.telemetry import default_registry

__all__ = ["CacheStatsRow", "cache_stats_rows", "render_cache_report"]

_HEADERS = ("cache", "hits", "misses (constructions)", "hit rate")


@dataclass(frozen=True)
class CacheStatsRow:
    """One cache's tallies, renderable by :func:`render_table`."""

    cache: str
    hits: int
    misses: int

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    def cells(self) -> Sequence[str]:
        rate = f"{self.hits / self.calls:.1%}" if self.calls else "n/a"
        return (self.cache, str(self.hits), str(self.misses), rate)


def cache_stats_rows(
    stats: Optional[dict[str, tuple[int, int]]] = None,
) -> list[CacheStatsRow]:
    """One row per cache, sorted by cache name.

    Parameters
    ----------
    stats:
        ``{name: (hits, misses)}``, e.g. from
        :meth:`~repro.telemetry.MetricsRegistry.cache_delta`.  Defaults
        to the lifetime totals of every registered counter.
    """
    if stats is None:
        stats = default_registry().cache_snapshot()
    # stats.get with a zero default: a delta dict may mention a counter
    # group without tallies (e.g. assembled by hand, or filtered), and a
    # fresh process — telemetry never enabled, no cache touched — has no
    # groups at all.  Both must render, not raise.
    return [
        CacheStatsRow(name, *stats.get(name, (0, 0)))
        for name in sorted(stats)
    ]


def render_cache_report(
    stats: Optional[dict[str, tuple[int, int]]] = None,
    title: str = "Cache effectiveness (hits / misses = constructions)",
) -> str:
    """Render the counters as a fixed-width table.

    Renders cleanly — headers only, no division by zero — when no
    counter group has been touched (or telemetry was never enabled).
    """
    rows = cache_stats_rows(stats)
    table = render_table(title, rows, headers=_HEADERS)
    if not rows:
        table += "\n(no cache activity recorded)"
    return table
