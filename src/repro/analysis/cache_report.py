"""Cache-stats reporting for the memoized hot paths.

The substrate memoizes at four layers (one-round complexes per model,
``P^(t)`` per protocol operator, its templates per shape key, closure
membership per ``(Δ(σ), τ)`` window); every layer reports into the
cache counters of :func:`repro.telemetry.default_registry`.  This module
turns those counters into rows and plain-text tables, in the same format
as the experiment tables, so benchmarks can record cache effectiveness
alongside the reproduced artifacts.

Typical use::

    registry = default_registry()
    before = registry.snapshot()
    ...  # run the workload
    print(render_cache_report(registry.delta(before, registry.snapshot())))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.reporting import render_table

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


def cache_stats_rows(stats: dict[str, float]) -> list[CacheStatsRow]:
    """One row per cache, sorted by cache name.

    Parameters
    ----------
    stats:
        ``cache:<name>:hits|misses`` counts, as
        :meth:`~repro.telemetry.MetricsRegistry.snapshot` writes them or
        :meth:`~repro.telemetry.MetricsRegistry.delta` leaves them.  A
        delta omits the tallies that did not move, so a missing tally
        reads as zero; a cache with no key at all gets no row.
    """
    tallies: dict[str, list[int]] = {}
    for key, value in stats.items():
        name, kind = key[len("cache:"):].rsplit(":", 1)
        tallies.setdefault(name, [0, 0])[kind == "misses"] = int(value)
    return [
        CacheStatsRow(name, *tallies[name]) for name in sorted(tallies)
    ]


def render_cache_report(
    stats: dict[str, float],
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
