"""Tests for span semantics: nesting, exception unwind, the fast path."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    NOOP_SPAN,
    ManualClock,
    Tracer,
    disable,
    enable,
    span,
    tracing,
)


def make_tracer(**kwargs):
    kwargs.setdefault("clock", ManualClock(tick=1.0))
    return Tracer(**kwargs)


def tracing_is_disabled():
    return span("probe") is NOOP_SPAN


class TestNesting:
    def test_sibling_and_child_structure(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                with tracer.span("leaf"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == [
            "first",
            "second",
        ]
        assert outer.children[1].children[0].name == "leaf"
        assert tracer.finished()

    def test_manual_clock_durations(self):
        tracer = make_tracer(clock=ManualClock(start=10.0, tick=1.0))
        with tracer.span("a") as entry:
            pass
        assert entry.start == 10.0
        assert entry.end == 11.0
        assert entry.duration == 1.0

    def test_attributes_coerced_at_record_time(self):
        from fractions import Fraction

        tracer = make_tracer()
        with tracer.span("a", eps=Fraction(1, 8), n=3, flag=True) as entry:
            entry.set_attribute("obj", object())
        assert entry.attributes["eps"] == "1/8"
        assert entry.attributes["n"] == 3
        assert entry.attributes["flag"] is True
        assert isinstance(entry.attributes["obj"], str)

    def test_empty_name_rejected(self):
        with pytest.raises(TelemetryError):
            make_tracer().span("")

    def test_reentering_a_span_rejected(self):
        tracer = make_tracer()
        entry = tracer.span("once")
        with entry:
            pass
        with pytest.raises(TelemetryError):
            entry.__enter__()


class TestExceptionUnwind:
    def test_error_status_and_propagation(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer = tracer.roots[0]
        inner = outer.children[0]
        # Both spans closed on the way out, both marked failed, and the
        # exception still propagated to pytest.raises.
        assert tracer.finished()
        assert inner.closed and outer.closed
        assert inner.status == "error"
        assert inner.attributes["error"] == "ValueError"
        assert outer.status == "error"

    def test_explicit_error_attribute_wins(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("a", error="custom") as entry:
                raise RuntimeError
        assert entry.attributes["error"] == "custom"


class TestModuleFastPath:
    def test_disabled_returns_shared_noop(self):
        assert tracing_is_disabled()
        handle = span("anything", key="value")
        assert handle is NOOP_SPAN
        with handle as inside:
            inside.set_attribute("ignored", 1)

    def test_enable_disable_roundtrip(self):
        tracer = make_tracer()
        assert enable(tracer) is tracer
        try:
            with span("root") as root:
                assert root in tracer.roots
                pass
        finally:
            assert disable() is tracer
        assert tracing_is_disabled()
        assert [root.name for root in tracer.roots] == ["root"]

    def test_tracing_context_manager_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with tracing(clock=ManualClock(tick=1.0)) as tracer:
                with span("doomed"):
                    raise RuntimeError
        assert tracing_is_disabled()
        assert tracer.finished()
        assert tracer.roots[0].status == "error"
