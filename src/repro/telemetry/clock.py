"""Injectable time sources for the telemetry layer.

Every timestamp the tracer records flows through a :class:`Clock`, so the
observability layer never calls ``time.monotonic()`` directly.  Production
tracing uses :class:`MonotonicClock`; tests and deterministic artifacts
(the fault-campaign reports, the exporter golden files) inject a
:class:`ManualClock` whose ``now()`` is fully scripted — a trace recorded
under a manual clock is byte-for-byte reproducible.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

__all__ = [
    "Clock",
    "MonotonicClock",
    "ManualClock",
]


class Clock(ABC):
    """A monotone time source measured in seconds."""

    @abstractmethod
    def now(self) -> float:
        """The current time in seconds; must never decrease."""


class MonotonicClock(Clock):
    """Wall-clock spans via :func:`time.monotonic` (the default)."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock(Clock):
    """A scripted clock for deterministic traces.

    Parameters
    ----------
    start:
        The initial reading.
    tick:
        Amount ``now()`` auto-advances *after* every reading.  The default
        of ``0.0`` keeps time frozen until :meth:`advance` is called; a
        positive tick gives every successive timestamp a distinct,
        predictable value without any explicit advancing.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        self._now = start
        self._tick = tick

    def now(self) -> float:
        reading = self._now
        self._now += self._tick
        return reading

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError("a monotone clock cannot move backwards")
        self._now += seconds
