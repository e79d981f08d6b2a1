"""Tests for the cache-stats report."""

from repro.analysis import CacheStatsRow, cache_stats_rows, render_cache_report
from repro.telemetry import MetricsRegistry


class TestRows:
    def test_cells_show_hit_rate(self):
        row = CacheStatsRow("sample", 3, 1)
        assert row.calls == 4
        assert row.cells() == ("sample", "3", "1", "75.0%")

    def test_zero_calls_renders_na(self):
        assert CacheStatsRow("idle", 0, 0).cells()[-1] == "n/a"

    def test_pure_construction_counter_renders(self):
        # A cache that only ever builds (0 hits) is still a valid row.
        assert CacheStatsRow("cold", 0, 7).cells() == (
            "cold", "0", "7", "0.0%"
        )

    def test_rows_sorted_by_name(self):
        rows = cache_stats_rows({"cache:b:hits": 1, "cache:a:misses": 1})
        assert [row.cache for row in rows] == ["a", "b"]
        assert [(row.hits, row.misses) for row in rows] == [(0, 1), (1, 0)]


class TestReport:
    def test_explicit_stats(self):
        text = render_cache_report(
            {"cache:one-round:hits": 9, "cache:one-round:misses": 1},
            title="T",
        )
        assert "T" in text
        assert "one-round" in text
        assert "90.0%" in text

    def test_empty_stats_render_cleanly(self):
        # No counter group at all (telemetry never enabled, no cache
        # touched): the table must render headers-only, not raise.
        text = render_cache_report({}, title="empty")
        assert "empty" in text
        assert "hit rate" in text
        assert "no cache activity recorded" in text

    def test_untouched_group_renders_as_zero(self):
        rows = cache_stats_rows(
            {"cache:idle-group:hits": 0, "cache:idle-group:misses": 0}
        )
        assert len(rows) == 1
        assert rows[0].cells() == ("idle-group", "0", "0", "n/a")

    def test_fresh_registry_renders(self):
        # Same empty-path guarantee through a fresh registry's snapshot.
        registry = MetricsRegistry()
        text = render_cache_report(registry.snapshot())
        assert "no cache activity recorded" in text
