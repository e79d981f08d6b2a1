"""Unit tests for the three register models and their one-round complexes."""


from repro.models import (
    ImmediateSnapshotModel,
    ProtocolOperator,
    standard_chromatic_subdivision,
)
from repro.topology import Simplex, SimplicialComplex, Vertex, View


class TestImmediateSnapshot:
    def test_one_round_edge(self, iis, edge):
        complex_ = iis.one_round_complex(edge)
        # Three executions: 1 first, 2 first, together.
        assert len(complex_.facets) == 3
        both = View({1: "a", 2: "b"})
        assert Vertex(1, both) in complex_.vertices
        assert Vertex(1, View({1: "a"})) in complex_.vertices

    def test_one_round_triangle_is_chromatic_subdivision(self, iis, triangle):
        subdivision = standard_chromatic_subdivision(triangle)
        assert len(subdivision.facets) == 13
        assert subdivision.f_vector() == (12, 24, 13)
        assert subdivision.is_pure()

    def test_subdivision_vertex_views_satisfy_is_conditions(
        self, iis, triangle
    ):
        complex_ = iis.one_round_complex(triangle)
        for facet in complex_.facets:
            views = {v.color: v.value for v in facet.vertices}
            for i, view_i in views.items():
                for j, view_j in views.items():
                    # j ∈ V_i or i ∈ V_j ...
                    assert j in view_i or i in view_j
                    # ... and j ∈ V_i ⟹ V_j ⊆ V_i.
                    if j in view_i:
                        assert view_j.is_subview_of(view_i)

    def test_solo_vertex_exists_for_every_process(self, iis, triangle):
        complex_ = iis.one_round_complex(triangle)
        for vertex in triangle.vertices:
            solo = iis.solo_vertex(vertex)
            assert solo in complex_.vertices

    def test_solo_value_shape(self, iis):
        solo = iis.solo_value(Vertex(2, "b"))
        assert solo == View({2: "b"})

    def test_allows_solo_executions(self, iis):
        assert iis.allows_solo_executions([1, 2])
        assert iis.allows_solo_executions([1, 2, 3])

    def test_view_maps_cached(self, iis):
        first = iis.schedules(frozenset({1, 2}))
        second = ImmediateSnapshotModel().schedules([2, 1])
        assert first is second

    def test_single_process(self, iis):
        complex_ = iis.one_round_complex(Simplex([(5, "v")]))
        assert len(complex_.facets) == 1
        assert complex_.dim == 0


class TestModelHierarchy:
    def test_facet_counts_fig8(self, iis, snapshot_model, collect_model, triangle):
        base = SimplicialComplex.from_simplex(triangle)
        assert len(iis.protocol_complex(base).facets) == 13
        assert len(snapshot_model.protocol_complex(base).facets) == 19
        assert len(collect_model.protocol_complex(base).facets) == 25

    def test_strict_inclusions(self, iis, snapshot_model, collect_model, triangle):
        base = SimplicialComplex.from_simplex(triangle)
        small = iis.protocol_complex(base)
        middle = snapshot_model.protocol_complex(base)
        large = collect_model.protocol_complex(base)
        assert small.simplices < middle.simplices
        assert middle.simplices < large.simplices

    def test_same_vertex_set_across_models(
        self, iis, snapshot_model, collect_model, triangle
    ):
        # All three models produce views = subsets containing self; only
        # the simplices differ.
        base = SimplicialComplex.from_simplex(triangle)
        assert (
            iis.protocol_complex(base).vertices
            == snapshot_model.protocol_complex(base).vertices
            == collect_model.protocol_complex(base).vertices
        )

    def test_models_coincide_for_two_processes(
        self, iis, snapshot_model, collect_model, edge
    ):
        assert (
            iis.one_round_complex(edge).simplices
            == snapshot_model.one_round_complex(edge).simplices
            == collect_model.one_round_complex(edge).simplices
        )

    def test_all_models_allow_solo(self, snapshot_model, collect_model):
        assert snapshot_model.allows_solo_executions([1, 2, 3])
        assert collect_model.allows_solo_executions([1, 2, 3])


class TestIteration:
    def test_two_round_iis_facets(self, iis, triangle):
        two = ProtocolOperator(iis).of_simplex(triangle, 2)
        assert len(two.facets) == 13 * 13

    def test_two_round_edge(self, iis, edge):
        assert len(ProtocolOperator(iis).of_simplex(edge, 2).facets) == 9

    def test_zero_rounds_is_identity(self, iis, triangle):
        base = SimplicialComplex.from_simplex(triangle)
        assert ProtocolOperator(iis).of_simplex(triangle, 0) == base

    def test_round_values_nest(self, iis, edge):
        two = ProtocolOperator(iis).of_simplex(edge, 2)
        vertex = next(iter(two.vertices))
        assert isinstance(vertex.value, View)
        inner = next(iter(vertex.value.values()))
        assert isinstance(inner, View)
