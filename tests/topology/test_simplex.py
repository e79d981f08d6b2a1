"""Unit tests for chromatic simplices."""

import pytest

from repro.errors import ChromaticityError
from repro.topology import Simplex, Vertex


class TestSimplexConstruction:
    def test_from_vertices(self):
        simplex = Simplex([Vertex(1, "a"), Vertex(2, "b")])
        assert simplex.dim == 1

    def test_from_pairs(self):
        simplex = Simplex([(2, "b"), (1, "a")])
        assert [v.color for v in simplex.vertices] == [1, 2]

    def test_from_mapping(self):
        simplex = Simplex.from_mapping({1: "a", 3: "c"})
        assert simplex.ids == frozenset({1, 3})

    def test_single(self):
        simplex = Simplex.single(4, "x")
        assert simplex.dim == 0
        assert simplex.value_of(4) == "x"

    def test_empty_rejected(self):
        with pytest.raises(ChromaticityError):
            Simplex([])

    def test_conflicting_colors_rejected(self):
        with pytest.raises(ChromaticityError):
            Simplex([(1, "a"), (1, "b")])

    def test_duplicate_identical_vertex_collapses(self):
        simplex = Simplex([(1, "a"), (1, "a"), (2, "b")])
        assert simplex.dim == 1


class TestSimplexStructure:
    def test_ids_and_dim(self, triangle):
        assert triangle.ids == frozenset({1, 2, 3})
        assert triangle.dim == 2
        assert len(triangle) == 3

    def test_value_and_vertex_lookup(self, triangle):
        assert triangle.value_of(2) == "b"
        assert triangle.vertex_of(2) == Vertex(2, "b")

    def test_as_mapping(self, triangle):
        assert triangle.as_mapping() == {1: "a", 2: "b", 3: "c"}

    def test_contains_vertex(self, triangle):
        assert Vertex(1, "a") in triangle
        assert Vertex(1, "z") not in triangle
        assert "not-a-vertex" not in triangle

    def test_iteration_sorted_by_color(self, triangle):
        assert [v.color for v in triangle] == [1, 2, 3]


class TestFacesAndProjections:
    def test_face_count(self, triangle):
        faces = list(triangle.faces())
        assert len(faces) == 7  # 1 + 3 + 3 non-empty subsets

    def test_proper_faces_exclude_self(self, triangle):
        proper = list(triangle.proper_faces())
        assert triangle not in proper
        assert len(proper) == 6

    def test_faces_of_vertex(self):
        vertex_simplex = Simplex.single(1, "a")
        assert list(vertex_simplex.faces()) == [vertex_simplex]

    def test_proj(self, triangle):
        projected = triangle.proj([1, 3])
        assert projected.ids == frozenset({1, 3})
        assert projected.value_of(3) == "c"

    def test_proj_missing_color_rejected(self, triangle):
        with pytest.raises(ChromaticityError):
            triangle.proj([1, 9])

    def test_proj_empty_rejected(self, triangle):
        with pytest.raises(ChromaticityError):
            triangle.proj([])

    def test_is_face_of(self, triangle):
        assert triangle.proj([1]).is_face_of(triangle)
        assert not triangle.is_face_of(triangle.proj([1, 2]))


class TestSimplexEquality:
    def test_order_insensitive(self):
        assert Simplex([(1, "a"), (2, "b")]) == Simplex([(2, "b"), (1, "a")])

    def test_hashable(self):
        assert len({Simplex([(1, "a")]), Simplex([(1, "a")])}) == 1

    def test_value_sensitive(self):
        assert Simplex([(1, "a")]) != Simplex([(1, "b")])
