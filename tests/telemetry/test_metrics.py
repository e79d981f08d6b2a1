"""Tests for the metrics registry and its cache counters."""

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import CacheCounter


class TestCacheCounter:
    def test_hits_and_misses(self):
        tally = CacheCounter("memo")
        tally.hit()
        tally.miss()
        tally.built()
        assert (tally.hits, tally.misses) == (1, 2)

    def test_reset(self):
        tally = CacheCounter("memo")
        tally.hit()
        tally.miss()
        tally.reset()
        assert (tally.hits, tally.misses) == (0, 0)


class TestRegistry:
    def test_fetch_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.cache("c") is registry.cache("c")

    def test_snapshot_flattens_cumulative_metrics(self):
        registry = MetricsRegistry()
        cache = registry.cache("memo")
        cache.hit()
        cache.miss()
        registry.cache("idle")
        assert registry.snapshot() == {
            "cache:memo:hits": 1,
            "cache:memo:misses": 1,
            "cache:idle:hits": 0,
            "cache:idle:misses": 0,
        }

    def test_delta_omits_unchanged(self):
        registry = MetricsRegistry()
        registry.cache("a").hit()
        registry.cache("b").hit()
        before = registry.snapshot()
        registry.cache("a").miss()
        delta = MetricsRegistry.delta(before, registry.snapshot())
        assert delta == {"cache:a:misses": 1}

    def test_cache_delta_shape(self):
        registry = MetricsRegistry()
        tally = registry.cache("sample")
        registry.cache("untouched")
        before = registry.cache_snapshot()
        tally.hit()
        tally.miss()
        registry.cache("fresh").hit()
        delta = registry.cache_delta(before, registry.cache_snapshot())
        assert delta == {"sample": (1, 1), "fresh": (1, 0)}

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.cache("c").miss()
        registry.cache("d").hit()
        registry.reset()
        assert registry.cache("c").misses == 0
        assert registry.cache("d").hits == 0
