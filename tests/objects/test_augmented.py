"""Unit tests for augmented models (IIS + black box)."""

import pytest

from repro.errors import ModelError
from repro.models import ProtocolOperator
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
)
from repro.topology import Simplex, SimplicialComplex, Vertex, View


class TestConstruction:
    def test_tas_needs_no_input_function(self):
        model = AugmentedModel(TestAndSetBox())
        assert "test&set" in model.name

    def test_bc_without_alpha_rejected(self):
        with pytest.raises(ModelError):
            AugmentedModel(BinaryConsensusBox())

    def test_custom_name(self):
        model = AugmentedModel(TestAndSetBox(), name="my-model")
        assert model.name == "my-model"


class TestTestAndSetComplex:
    def test_fig5_counts(self, iis_tas, triangle):
        complex_ = iis_tas.protocol_complex(
            SimplicialComplex.from_simplex(triangle)
        )
        # Fig. 5: 21 vertices, 7 per color.
        assert len(complex_.vertices) == 21
        for color in (1, 2, 3):
            assert len(complex_.vertices_of_color(color)) == 7

    def test_full_participation_facet_count(self, iis_tas, triangle):
        # 13 subdivision facets, weighted by first-block size:
        # 6·1 + 3·2 + 3·1 + 1·3 = 18.
        assert len(iis_tas.one_round_complex(triangle).facets) == 18

    def test_solo_views_always_win(self, iis_tas, triangle):
        complex_ = iis_tas.protocol_complex(
            SimplicialComplex.from_simplex(triangle)
        )
        for vertex in complex_.vertices:
            bit, view = vertex.value
            if len(view) == 1:
                assert bit == 1

    def test_exactly_one_winner_per_facet(self, iis_tas, triangle):
        for facet in iis_tas.one_round_complex(triangle).facets:
            bits = [v.value[0] for v in facet.vertices]
            assert sum(bits) == 1

    def test_solo_value(self, iis_tas):
        assert iis_tas.solo_value(Vertex(2, "b")) == (1, View({2: "b"}))

    def test_allows_solo(self, iis_tas):
        assert iis_tas.allows_solo_executions([1, 2, 3])


class TestBinaryConsensusComplex:
    def test_fig7_structure(self, iis_bc_beta011, triangle):
        complex_ = iis_bc_beta011.protocol_complex(
            SimplicialComplex.from_simplex(triangle)
        )
        # Process 1 calls with 0: its solo vertex with output 1 is absent.
        assert (
            Vertex(1, (1, View({1: "a"}))) not in complex_.vertices
        )
        assert Vertex(1, (0, View({1: "a"}))) in complex_.vertices

    def test_same_output_within_facet(self, iis_bc_beta011, triangle):
        for facet in iis_bc_beta011.one_round_complex(triangle).facets:
            bits = {v.value[0] for v in facet.vertices}
            assert len(bits) == 1

    def test_homogeneous_subset_forced(self, iis_bc_beta011):
        # Only processes 2 and 3 (both call with 1) participate: output 1.
        sub = Simplex([(2, "b"), (3, "c")])
        for vertex in iis_bc_beta011.one_round_complex(sub).vertices:
            assert vertex.value[0] == 1

    def test_solo_value_echoes_beta(self, iis_bc_beta011):
        assert iis_bc_beta011.solo_value(Vertex(1, "a"))[0] == 0
        assert iis_bc_beta011.solo_value(Vertex(2, "b"))[0] == 1

    def test_input_of(self, iis_bc_beta011):
        assert iis_bc_beta011.input_of(Vertex(3, "anything")) == 1


class TestMultiRound:
    def test_two_round_augmented_values_nest(self, iis_tas, edge):
        two = ProtocolOperator(iis_tas).of_simplex(edge, 2)
        vertex = next(iter(two.vertices))
        bit, view = vertex.value
        assert bit in (0, 1)
        inner_bit, inner_view = next(iter(view.values()))
        assert inner_bit in (0, 1)
        assert isinstance(inner_view, View)
