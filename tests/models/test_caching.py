"""The model-level memoization layer (one-round complexes, view maps)."""

from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
)
from repro.telemetry import MetricsRegistry, default_registry
from repro.topology import Simplex


def triangle():
    return Simplex([(1, "a"), (2, "b"), (3, "c")])


class TestOneRoundMemo:
    def test_repeat_requests_return_the_same_object(self):
        iis = ImmediateSnapshotModel()
        sigma = triangle()
        assert iis.one_round_complex(sigma) is iis.one_round_complex(sigma)

    def test_memo_is_per_model_instance(self):
        sigma = triangle()
        first = ImmediateSnapshotModel().one_round_complex(sigma)
        second = ImmediateSnapshotModel().one_round_complex(sigma)
        assert first is not second
        assert first == second

    def test_operators_share_the_model_cache(self):
        # Independent operators over one model must not re-materialize
        # one-round complexes the model has already built.
        iis = ImmediateSnapshotModel()
        sigma = triangle()
        ProtocolOperator(iis).of_simplex(sigma, 1)
        name = f"one-round-complex[{iis.name}]"
        before = default_registry().cache_snapshot()
        ProtocolOperator(iis).of_simplex(sigma, 1)
        delta = MetricsRegistry.cache_delta(
            before, default_registry().cache_snapshot()
        )
        hits, misses = delta.get(name, (0, 0))
        assert misses == 0
        assert hits > 0

    def test_memo_preserves_facet_counts(self):
        sigma = triangle()
        for model, expected in (
            (ImmediateSnapshotModel(), 13),
            (SnapshotModel(), 19),
            (CollectModel(), 25),
        ):
            for _ in range(2):
                assert len(model.one_round_complex(sigma).facets) == expected


class TestViewMapMemo:
    def test_repeat_requests_return_the_same_object(self):
        iis = ImmediateSnapshotModel()
        first = iis.view_maps([1, 2, 3])
        second = iis.view_maps([1, 2, 3])
        assert first is second

    def test_id_order_is_irrelevant(self):
        iis = ImmediateSnapshotModel()
        assert iis.view_maps([1, 2]) is iis.view_maps([2, 1])


class TestCounterPlumbing:
    def test_counter_is_a_process_wide_singleton(self):
        a = default_registry().cache("test-caching.sample")
        b = default_registry().cache("test-caching.sample")
        assert a is b

    def test_counters_delta_omits_unchanged(self):
        registry = default_registry()
        sample = registry.cache("test-caching.delta")
        before = registry.cache_snapshot()
        delta = registry.cache_delta(before, registry.cache_snapshot())
        assert "test-caching.delta" not in delta
        sample.hit()
        delta = registry.cache_delta(before, registry.cache_snapshot())
        assert delta["test-caching.delta"] == (1, 0)
