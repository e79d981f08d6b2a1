"""The paper's figures (E1, E4, E5, E11), asserted structurally, and the
census helpers behind them."""

from repro.experiments.figures import (
    ComplexCensus,
    per_color_census,
    reproduce_fig4,
    reproduce_fig5,
    reproduce_fig7,
    reproduce_fig8,
)
from repro.models import ProtocolOperator
from repro.topology import SimplicialComplex


def _protocol(model, sigma, rounds=1):
    return ProtocolOperator(model).of_simplex(sigma, rounds)


class TestComplexCensus:
    def test_of_subdivision(self, iis, triangle):
        census = ComplexCensus.of(_protocol(iis, triangle))
        assert census.facets == 13
        assert census.vertices == 12
        assert census.f_vector == (12, 24, 13)
        assert census.dim == 2
        assert census.pure
        assert census.euler_characteristic == 1  # subdivided disk

    def test_of_simplex(self, triangle):
        census = ComplexCensus.of(SimplicialComplex.from_simplex(triangle))
        assert census.facets == 1
        assert census.vertices == 3

    def test_multi_round(self, iis, edge):
        census = ComplexCensus.of(_protocol(iis, edge, rounds=2))
        assert census.facets == 9
        assert census.dim == 1


class TestPerColor:
    def test_subdivision_four_views_per_color(self, iis, triangle):
        census = per_color_census(_protocol(iis, triangle))
        assert census == {1: 4, 2: 4, 3: 4}

    def test_tas_seven_views_per_color(self, iis_tas, triangle):
        census = per_color_census(_protocol(iis_tas, triangle))
        assert census == {1: 7, 2: 7, 3: 7}


class TestCompareModels:
    """Fig. 8: ``IIS ⊂ snapshot ⊂ collect``, strictly, for ``n = 3``."""

    def test_iis_within_snapshot(self, iis, snapshot_model, triangle):
        small = _protocol(iis, triangle)
        large = _protocol(snapshot_model, triangle)
        assert small.simplices < large.simplices
        assert len(small.facets) == 13
        assert len(large.facets) == 19
        assert len(large.facets - small.facets) == 6

    def test_snapshot_within_collect(
        self, snapshot_model, collect_model, triangle
    ):
        small = _protocol(snapshot_model, triangle)
        large = _protocol(collect_model, triangle)
        assert small.simplices < large.simplices
        assert len(large.facets) == 25

    def test_reverse_not_contained(self, iis, collect_model, triangle):
        small = _protocol(iis, triangle)
        large = _protocol(collect_model, triangle)
        assert not large.simplices <= small.simplices


class TestFigure4:
    def test_two_process_consensus_with_tas_solvable(self):
        data = reproduce_fig4()
        assert data["map_found"]
        assert data["correct"] == data["runs"]

    def test_protocol_vertex_count(self):
        # Per input edge: solo views only with win=1; both-views with 0/1.
        assert reproduce_fig4()["protocol_vertices"] == 20


class TestFigure5:
    def test_counts(self):
        data = reproduce_fig5()
        assert data["per_color"] == {1: 7, 2: 7, 3: 7}
        assert data["full_participation_facets"] == 18
        assert len(data["complex"].vertices) == 21

    def test_solo_always_wins(self):
        data = reproduce_fig5()
        assert set(data["solo_outcomes"].values()) == {1}

    def test_non_solo_views_duplicated(self):
        data = reproduce_fig5()
        assert all(data["non_solo_views_duplicated"].values())


class TestFigure7:
    def test_opposite_solo_vertices_removed(self):
        data = reproduce_fig7()["mixed"]
        assert all(data["opposite_solo_removed"].values())

    def test_facets_split_by_agreed_bit(self):
        data = reproduce_fig7()["mixed"]
        per_bit = data["facets_per_agreed_bit"]
        # Bit 0 only when the black process (calling 0) is in the first
        # block: 6 of the 13 schedules; bit 1 for the remaining 10 (with
        # mixed first blocks contributing both).
        assert per_bit == {0: 6, 1: 10}

    def test_uniform_calls_give_single_copy(self):
        data = reproduce_fig7()["uniform"]
        assert data["facets_per_agreed_bit"] == {0: 0, 1: 13}


class TestFigure8:
    def test_census(self):
        data = reproduce_fig8()
        assert data["immediate_snapshot"].facets == 13
        assert data["snapshot"].facets == 19
        assert data["collect"].facets == 25
        assert data["iis_strictly_inside_snapshot"]
        assert data["snapshot_strictly_inside_collect"]
        assert data["snapshot_only_facets"] == 6
        assert data["collect_only_facets"] == 6

    def test_same_12_vertices_everywhere(self):
        data = reproduce_fig8()
        assert data["immediate_snapshot"].vertices == 12
        assert data["snapshot"].vertices == 12
        assert data["collect"].vertices == 12
