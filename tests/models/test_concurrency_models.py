"""Unit tests for the k-concurrency and no-synchrony affine models."""

import pytest

from repro.core import impossibility_from_fixed_point, is_solvable  # noqa: F401
from repro.errors import ModelError
from repro.models import (
    k_concurrency_model,
    no_synchrony_model,
)
from repro.tasks import binary_consensus_task


class TestKConcurrency:
    def test_invalid_k(self, iis):
        with pytest.raises(ModelError):
            k_concurrency_model(iis, 0)

    def test_k1_is_sequential(self, iis, triangle):
        model = k_concurrency_model(iis, 1)
        complex_ = model.one_round_complex(triangle)
        # Only the 3! fully sequential executions survive.
        assert len(complex_.facets) == 6

    def test_k2_drops_only_synchronous(self, iis, triangle):
        model = k_concurrency_model(iis, 2)
        assert len(model.one_round_complex(triangle).facets) == 12

    def test_k_ge_n_equals_base(self, iis, triangle):
        model = k_concurrency_model(iis, 3)
        assert (
            model.one_round_complex(triangle).simplices
            == iis.one_round_complex(triangle).simplices
        )

    def test_solo_preserved_for_every_k(self, iis):
        for k in (1, 2, 3):
            assert k_concurrency_model(iis, k).allows_solo_executions(
                [1, 2, 3]
            )

    def test_block_sizes_bounded(self, iis, triangle):
        model = k_concurrency_model(iis, 2)
        for schedule in model.schedules(frozenset({1, 2, 3})):
            by_view = {}
            for view in schedule.view_map().values():
                by_view[view] = by_view.get(view, 0) + 1
            assert max(by_view.values()) <= 2

    def test_two_process_consensus_solvable_sequentially(self, iis):
        # Removing concurrency changes computability: in the 1-concurrency
        # model the "both see both" execution disappears, the path argument
        # of Corollary 1 breaks, and 2-process consensus becomes 1-round
        # solvable (the second process adopts the first's value).
        model = k_concurrency_model(iis, 1)
        assert is_solvable(binary_consensus_task([1, 2]), model, 1)

    def test_three_process_consensus_still_impossible_sequentially(self, iis):
        # …but with three processes even the sequential model cannot solve
        # consensus: exactly as in Corollary 2, plain consensus is not a
        # fixed point (its 2-process faces are solvable), while the relaxed
        # task is — Lemma 1 then gives impossibility.  A new result
        # obtained with the paper's own technique.
        from repro.tasks import relaxed_consensus_task

        model = k_concurrency_model(iis, 1)
        assert not is_solvable(binary_consensus_task([1, 2, 3]), model, 1)
        report = impossibility_from_fixed_point(
            relaxed_consensus_task([1, 2, 3]), model
        )
        assert report.fixed_point
        assert report.unsolvable

    def test_two_concurrency_consensus_fixed_point_n3(self, iis):
        # k = 2 keeps enough concurrency for the full Corollary 1 argument:
        # plain consensus is again a fixed point for three processes.
        model = k_concurrency_model(iis, 2)
        report = impossibility_from_fixed_point(
            binary_consensus_task([1, 2, 3]), model
        )
        assert report.fixed_point
        assert report.unsolvable

    def test_model_name_mentions_k(self, iis):
        assert "2-concurrency" in k_concurrency_model(iis, 2).name


class TestNoSynchrony:
    def test_drops_exactly_one_facet(self, iis, triangle):
        model = no_synchrony_model(iis)
        assert len(model.one_round_complex(triangle).facets) == 12

    def test_solo_preserved(self, iis):
        assert no_synchrony_model(iis).allows_solo_executions([1, 2, 3])

    def test_two_process_consensus_becomes_solvable(self, iis):
        # For n = 2 the synchronous execution IS the middle edge of the
        # path in Corollary 1's proof; removing it disconnects the
        # one-round complex and consensus becomes solvable.
        model = no_synchrony_model(iis)
        assert is_solvable(binary_consensus_task([1, 2]), model, 1)

    def test_three_process_consensus_still_unsolvable_one_round(self, iis):
        # With three processes, removing just the synchronous facet leaves
        # the complex connected enough for impossibility at one round.
        model = no_synchrony_model(iis)
        assert not is_solvable(binary_consensus_task([1, 2, 3]), model, 1)
