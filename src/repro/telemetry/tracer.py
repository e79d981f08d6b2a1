"""Nested, exception-safe tracing spans with a disabled-mode fast path.

The library's hot layers call the module-level :func:`span` factory::

    from repro.telemetry import span

    with span("closure/decide", task=name) as sp:
        ...
        sp.set_attribute("solvable", found)

With no tracer installed (the default), :func:`span` reads one module
attribute and returns a shared no-op handle whose ``__enter__``/``__exit__``
do nothing — the hot loops pay a dict-free constant, measured below 3 % on
the E22 perf workload (``benchmarks/bench_telemetry_overhead.py``).  With a
tracer installed via :func:`enable` (or the :func:`tracing` context
manager), each ``with`` block records a :class:`Span` carrying wall time
from an injectable :class:`~repro.telemetry.clock.Clock` and
caller-supplied attributes.  Counts live in the metrics registry, not on
spans.

Spans nest by ``with``-block structure; an exception unwinding through a
span closes it (recording ``status="error"`` and the exception type) and
propagates, so a trace of a failing run is still a well-formed tree —
exactly what :func:`~repro.telemetry.export.load_trace` checks on
finished artifacts.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import TracebackType
from typing import Iterator, Optional, Union

from repro.errors import TelemetryError
from repro.telemetry.clock import Clock, MonotonicClock

__all__ = [
    "Span",
    "Tracer",
    "SpanLike",
    "NOOP_SPAN",
    "span",
    "enable",
    "disable",
    "tracing",
]

#: Attribute types stored verbatim; everything else is coerced via ``str``
#: at record time so finished spans are JSON-serializable by construction.
_VERBATIM = (str, int, float, bool, type(None))

AttributeValue = Union[str, int, float, bool, None]


def coerce_attribute(value: object) -> AttributeValue:
    """Clamp an attribute value to the JSON-safe scalar types.

    Strings, ints, floats, bools, and ``None`` pass through; any other
    object (a ``Fraction``, a ``Simplex``, …) is recorded as ``str(value)``
    — traces are observability artifacts, not object stores.
    """
    if isinstance(value, _VERBATIM):
        return value
    return str(value)


class Span:
    """One timed, attributed region of a traced run.

    Created by :meth:`Tracer.span` and driven exclusively through the
    ``with`` protocol; ``start``/``end`` are clock readings in seconds.
    ``children`` are the spans opened (directly) inside this one, in
    opening order.
    """

    __slots__ = (
        "name",
        "attributes",
        "start",
        "end",
        "status",
        "children",
        "_tracer",
    )

    def __init__(
        self, tracer: "Tracer", name: str, attributes: dict[str, object]
    ) -> None:
        self.name = name
        self.attributes: dict[str, AttributeValue] = {
            key: coerce_attribute(value)
            for key, value in attributes.items()
        }
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.status = "ok"
        self.children: list[Span] = []
        self._tracer = tracer

    @property
    def closed(self) -> bool:
        """Whether the span has been exited."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Wall time between enter and exit (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, name: str, value: object) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self.attributes[name] = coerce_attribute(value)

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self._tracer._close(self, exc_type)
        return False  # never swallow the exception

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NoOpSpan:
    """The shared disabled-mode handle: every operation is a no-op."""

    __slots__ = ()

    def set_attribute(self, name: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


#: The singleton returned by :func:`span` while tracing is disabled.  Its
#: enter/exit are stateless, so one shared instance serves every caller.
NOOP_SPAN = _NoOpSpan()

SpanLike = Union[Span, _NoOpSpan]


class Tracer:
    """Builds the span tree of one traced run.

    Parameters
    ----------
    clock:
        Time source for span boundaries (default: monotonic wall clock).
        Inject a :class:`~repro.telemetry.clock.ManualClock` for
        deterministic artifacts.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    # Span lifecycle (driven by Span.__enter__/__exit__)
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> Span:
        """A new span handle; enters the tree when the ``with`` opens."""
        if not name:
            raise TelemetryError("span names must be non-empty")
        return Span(self, name, attributes)

    def _open(self, entry: Span) -> None:
        if entry.start is not None:
            raise TelemetryError(
                f"span {entry.name!r} entered twice; create a fresh span "
                "per with-block"
            )
        if self._stack:
            self._stack[-1].children.append(entry)
        else:
            self.roots.append(entry)
        self._stack.append(entry)
        entry.start = self.clock.now()

    def _close(
        self, entry: Span, exc_type: Optional[type[BaseException]]
    ) -> None:
        if not self._stack or self._stack[-1] is not entry:
            raise TelemetryError(
                f"unbalanced span exit: {entry.name!r} is not the "
                "innermost open span"
            )
        self._stack.pop()
        entry.end = self.clock.now()
        if exc_type is not None:
            entry.status = "error"
            entry.attributes.setdefault("error", exc_type.__name__)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def finished(self) -> bool:
        """``True`` iff every opened span has been closed."""
        return not self._stack


# ----------------------------------------------------------------------
# The module-level fast path
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def span(name: str, **attributes: object) -> SpanLike:
    """A span handle from the installed tracer, or the shared no-op.

    This is *the* instrumentation entry point for the hot layers: one
    module-attribute read decides between real tracing and the free
    no-op, so disabled telemetry costs nothing measurable.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attributes)


def enable(
    tracer: Optional[Tracer] = None, clock: Optional[Clock] = None
) -> Tracer:
    """Install a tracer process-wide and return it.

    Passing an existing ``tracer`` installs it as-is; otherwise a fresh
    :class:`Tracer` is built on ``clock``.
    Re-enabling while a tracer is installed replaces it (the previous
    tracer keeps its recorded spans).
    """
    global _ACTIVE
    if tracer is None:
        tracer = Tracer(clock=clock)
    _ACTIVE = tracer
    return tracer


def disable() -> Optional[Tracer]:
    """Uninstall the tracer and return it (``None`` if none was active)."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    return tracer


@contextmanager
def tracing(clock: Optional[Clock] = None) -> Iterator[Tracer]:
    """Scoped tracing: install a fresh tracer, uninstall on exit.

    The yielded tracer (and its recorded spans) stays usable after the
    block — hand it to the exporters in :mod:`repro.telemetry.export`.
    """
    tracer = enable(clock=clock)
    try:
        yield tracer
    finally:
        disable()
