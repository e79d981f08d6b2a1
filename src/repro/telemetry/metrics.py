"""Cache hit/miss tallies in one process-wide registry.

:class:`MetricsRegistry` is the home of every metric the library
records.  There is one metric kind, :class:`CacheCounter`: paired
hit/miss tallies for one memoized layer, or a build count for a
construction site with no cache in front.

Naming convention (see docs/OBSERVABILITY.md): lowercase dotted/bracketed
component paths, e.g. ``faults.campaign.executions`` or
``one-round-complex[iterated-immediate-snapshot]``.  Snapshots flatten a
registry into ``cache:<name>:hits|misses -> number`` entries so the
tracer can attach per-span metric *deltas* — the difference between the
snapshots taken when the span opened and closed.

Recording is a single attribute increment; fetch the counter once (at
import) with ``default_registry().cache(name)`` and keep the reference on
the hot path — the ``repro check`` lint rule RPR003 enforces this.
"""

from __future__ import annotations

__all__ = [
    "CacheCounter",
    "MetricsRegistry",
    "default_registry",
]


class CacheCounter:
    """Hit/miss tallies for one named cache (or construction site).

    For a memoizing layer, every ``miss`` is one materialization of the
    cached object; layers that build unconditionally (no cache in front)
    record via :meth:`built` and report zero hits.
    """

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0

    def hit(self) -> None:
        """Record a lookup served from the cache."""
        self.hits += 1

    def miss(self) -> None:
        """Record a lookup that had to materialize the object."""
        self.misses += 1

    #: Construction sites without a cache record every build as a miss.
    built = miss

    def reset(self) -> None:
        """Zero the tallies (the counter stays registered)."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"CacheCounter({self.name!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


class MetricsRegistry:
    """Name-keyed home of every cache counter of one process (or test).

    Counters are created lazily on first fetch and aggregate across every
    holder of the same name — exactly what a sweep constructing many
    short-lived operators needs.  A fresh registry can be instantiated for
    isolation (tests, nested benchmark harnesses); the library's shared
    instance is :func:`default_registry`.
    """

    def __init__(self) -> None:
        self._caches: dict[str, CacheCounter] = {}

    def cache(self, name: str) -> CacheCounter:
        """The cache counter registered under ``name`` (created lazily)."""
        found = self._caches.get(name)
        if found is None:
            found = self._caches[name] = CacheCounter(name)
        return found

    # ------------------------------------------------------------------
    # Snapshots and deltas
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        """An immutable ``{name: (hits, misses)}`` view of the caches."""
        return {
            name: (entry.hits, entry.misses)
            for name, entry in self._caches.items()
        }

    @staticmethod
    def cache_delta(
        before: dict[str, tuple[int, int]],
        after: dict[str, tuple[int, int]],
    ) -> dict[str, tuple[int, int]]:
        """Per-counter ``(hits, misses)`` between two cache snapshots.

        Counters absent from ``before`` are taken as starting from zero;
        counters unchanged between the snapshots are omitted.
        """
        changed: dict[str, tuple[int, int]] = {}
        for name, (hits, misses) in after.items():
            base_hits, base_misses = before.get(name, (0, 0))
            step = (hits - base_hits, misses - base_misses)
            if step != (0, 0):
                changed[name] = step
        return changed

    def snapshot(self) -> dict[str, float]:
        """Flatten every counter into ``cache:<name>:hits|misses``.

        This is the tracer's per-span accounting (see :meth:`delta`).
        """
        flat: dict[str, float] = {}
        for name, cache in self._caches.items():
            flat[f"cache:{name}:hits"] = cache.hits
            flat[f"cache:{name}:misses"] = cache.misses
        return flat

    @staticmethod
    def delta(
        before: dict[str, float], after: dict[str, float]
    ) -> dict[str, float]:
        """Per-key accumulation between two snapshots (zeros omitted).

        Keys absent from ``before`` start from zero; keys unchanged
        between the snapshots are omitted.
        """
        changed: dict[str, float] = {}
        for key, value in after.items():
            step = value - before.get(key, 0)
            if step:
                changed[key] = step
        return changed

    def reset(self) -> None:
        """Zero every cache counter (all stay registered)."""
        for cache in self._caches.values():
            cache.reset()


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide shared registry (what the hot paths report into)."""
    return _DEFAULT
