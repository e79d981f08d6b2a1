"""Unit tests for pseudomanifolds and boundaries."""

import pytest

from repro.models import standard_chromatic_subdivision
from repro.topology import (
    Simplex,
    SimplicialComplex,
    boundary_complex,
    is_pseudomanifold,
    ridge_incidence,
)


@pytest.fixture
def subdivision(triangle):
    return standard_chromatic_subdivision(triangle)


class TestRidgeIncidence:
    def test_single_triangle(self, triangle):
        incidence = ridge_incidence(SimplicialComplex.from_simplex(triangle))
        # Three edges, each in the single facet.
        assert len(incidence) == 3
        assert all(len(f) == 1 for f in incidence.values())

    def test_subdivision_interior_edges_have_two_facets(self, subdivision):
        incidence = ridge_incidence(subdivision)
        counts = sorted(len(f) for f in incidence.values())
        assert set(counts) == {1, 2}
        # f-vector (12, 24, 13): 24 edges total.
        assert len(incidence) == 24

    def test_zero_dim_complex_has_no_ridges(self):
        complex_ = SimplicialComplex([Simplex([(1, "a")])])
        assert ridge_incidence(complex_) == {}


class TestPseudomanifold:
    def test_subdivision_is_pseudomanifold(self, subdivision):
        assert is_pseudomanifold(subdivision)

    def test_single_simplex_is_pseudomanifold(self, triangle):
        assert is_pseudomanifold(SimplicialComplex.from_simplex(triangle))

    def test_impure_is_not(self):
        complex_ = SimplicialComplex(
            [Simplex([(1, "a"), (2, "b")]), Simplex([(3, "c")])]
        )
        assert not is_pseudomanifold(complex_)

    def test_three_triangles_on_one_edge_fail(self):
        shared = [(1, "a"), (2, "b")]
        complex_ = SimplicialComplex(
            [
                Simplex(shared + [(3, "x")]),
                Simplex(shared + [(3, "y")]),
                Simplex(shared + [(3, "z")]),
            ]
        )
        assert not is_pseudomanifold(complex_)

    def test_disconnected_fails_unless_allowed(self, triangle):
        other = Simplex([(1, "x"), (2, "y"), (3, "z")])
        complex_ = SimplicialComplex([triangle, other])
        assert not is_pseudomanifold(complex_)
        assert is_pseudomanifold(complex_, require_connected=False)

    def test_empty_is_not(self):
        assert not is_pseudomanifold(SimplicialComplex.empty())

    def test_snapshot_complex_is_not_pseudomanifold(
        self, snapshot_model, triangle
    ):
        # The snapshot one-round complex is NOT a subdivision: extra
        # facets overlap, breaking the two-per-ridge condition.
        complex_ = snapshot_model.protocol_complex(
            SimplicialComplex.from_simplex(triangle)
        )
        assert not is_pseudomanifold(complex_)


class TestBoundary:
    def test_boundary_of_triangle(self, triangle):
        boundary = boundary_complex(SimplicialComplex.from_simplex(triangle))
        assert len(boundary.facets) == 3
        assert boundary.dim == 1

    def test_boundary_of_subdivision_is_subdivided_boundary(
        self, iis, subdivision, triangle
    ):
        boundary = boundary_complex(subdivision)
        # Each original edge subdivides into 3 edges: 9 boundary edges.
        assert len(boundary.facets) == 9
        # And it equals the union of the subdivided proper faces of σ.
        expected = SimplicialComplex(
            facet
            for face in triangle.proper_faces()
            if face.dim == 1
            for facet in iis.protocol_complex(
                SimplicialComplex.from_simplex(face)
            ).facets
        )
        assert boundary.simplices == expected.simplices

    def test_boundary_is_a_cycle(self, subdivision):
        # Every boundary vertex lies in exactly two boundary edges.
        boundary = boundary_complex(subdivision)
        for vertex in boundary.vertices:
            containing = [f for f in boundary.facets if vertex in f]
            assert len(containing) == 2
        assert boundary.euler_characteristic() == 0  # a circle


class TestJoin:
    def test_protocol_complex_is_not_a_join(self, iis):
        # join(P^(1)({1}), P^(1)({2})) pairs the two SOLO views in one
        # simplex — an execution where both processes see only themselves,
        # which no interleaving realizes (someone always reads the other's
        # earlier write).  The protocol complex is strictly thinner than
        # the join of its face complexes: that missing simplex is the whole
        # content of the consensus impossibility for two processes.
        (left,) = iis.one_round_complex(Simplex([(1, "a")])).vertices
        (right,) = iis.one_round_complex(Simplex([(2, "b")])).vertices
        full = iis.protocol_complex(
            SimplicialComplex.from_simplex(Simplex([(1, "a"), (2, "b")]))
        )
        # The join of the two solo complexes is this one edge.
        both_solo = Simplex([left, right])
        assert {left, right} <= full.vertices
        assert both_solo not in full
