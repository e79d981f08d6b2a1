"""Unit tests for census utilities."""

from repro.analysis import per_color_census
from repro.analysis.counting import ComplexCensus
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
