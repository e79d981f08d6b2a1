"""The model-level memoization layer (one-round complexes, view maps)."""

from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
    k_concurrency_model,
)
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.telemetry import default_registry
from repro.topology import Simplex

#: One fresh instance per call of every model family the experiments use.
MODEL_FAMILIES = {
    "collect": CollectModel,
    "snapshot": SnapshotModel,
    "IIS": ImmediateSnapshotModel,
    "2-concurrency": lambda: k_concurrency_model(ImmediateSnapshotModel(), 2),
    "IIS+t&s": lambda: AugmentedModel(TestAndSetBox()),
    "IIS+bc": lambda: AugmentedModel(
        BinaryConsensusBox(), beta_input_function({1: 1, 2: 0, 3: 1})
    ),
}


def triangle():
    return Simplex([(1, "a"), (2, "b"), (3, "c")])


class TestOneRoundMemo:
    def test_repeat_requests_return_the_same_object(self):
        iis = ImmediateSnapshotModel()
        sigma = triangle()
        assert iis.one_round_complex(sigma) is iis.one_round_complex(sigma)

    def test_memo_is_per_model_instance(self):
        sigma = triangle()
        for family, make in MODEL_FAMILIES.items():
            model = make()
            first = model.one_round_complex(sigma)
            second = make().one_round_complex(sigma)
            assert first is not second, family
            assert first == second, family
            # Every memo entry, read back through the memo, still equals
            # a fresh uncached build.
            for face in sigma.faces():
                model.one_round_complex(face)
            for face in sigma.faces():
                assert model.one_round_complex(face) == (
                    make()._build_one_round_complex(face)
                ), (family, face)

    def test_operators_share_the_model_cache(self):
        # Independent operators over one model must not re-materialize
        # one-round complexes the model has already built.
        iis = ImmediateSnapshotModel()
        sigma = triangle()
        ProtocolOperator(iis).of_simplex(sigma, 1)
        name = f"cache:one-round-complex[{iis.name}]"
        registry = default_registry()
        before = registry.snapshot()
        ProtocolOperator(iis).of_simplex(sigma, 1)
        delta = registry.delta(before, registry.snapshot())
        assert f"{name}:misses" not in delta
        assert delta[f"{name}:hits"] > 0

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
    """Every model instance reads one shared pool per participant set."""

    def test_repeat_requests_return_the_same_object(self):
        first = ImmediateSnapshotModel().schedules([1, 2, 3])
        second = ImmediateSnapshotModel().schedules([1, 2, 3])
        assert first is second

    def test_id_order_is_irrelevant(self):
        iis = ImmediateSnapshotModel()
        assert iis.schedules([1, 2]) is iis.schedules([2, 1])


class TestCounterPlumbing:
    def test_counter_is_a_process_wide_singleton(self):
        a = default_registry().cache("test-caching.sample")
        b = default_registry().cache("test-caching.sample")
        assert a is b

    def test_counters_delta_omits_unchanged(self):
        registry = default_registry()
        sample = registry.cache("test-caching.delta")
        before = registry.snapshot()
        delta = registry.delta(before, registry.snapshot())
        assert not any("test-caching.delta" in key for key in delta)
        sample.hit()
        delta = registry.delta(before, registry.snapshot())
        assert delta == {"cache:test-caching.delta:hits": 1}
