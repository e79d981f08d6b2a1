"""Unit tests for 1-skeleton connectivity."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology import Simplex, SimplicialComplex, Vertex
from repro.topology.connectivity import connected_components, is_connected
from tests.topology.reference import one_skeleton_adjacency


colors = st.integers(min_value=1, max_value=5)
values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(
        min_value=Fraction(0), max_value=Fraction(1), max_denominator=8
    ),
    st.text(alphabet="abc", min_size=0, max_size=2),
)


@st.composite
def simplices(draw, max_colors=4):
    pool = draw(
        st.lists(colors, min_size=1, max_size=max_colors, unique=True)
    )
    return Simplex((c, draw(values)) for c in pool)


@st.composite
def families(draw, max_size=6):
    return draw(st.lists(simplices(), min_size=1, max_size=max_size))


@pytest.fixture
def path_complex():
    """A path of three edges: the shape used in Corollary 1's proof."""
    return SimplicialComplex(
        [
            Simplex([(1, "s"), (2, "m1")]),
            Simplex([(1, "m2"), (2, "m1")]),
            Simplex([(1, "m2"), (2, "t")]),
        ]
    )


@pytest.fixture
def disconnected():
    return SimplicialComplex([Simplex([(1, "a")]), Simplex([(2, "b")])])


class TestAdjacency:
    def test_adjacency_of_edge(self):
        complex_ = SimplicialComplex.from_simplex(Simplex([(1, "a"), (2, "b")]))
        adjacency = one_skeleton_adjacency(complex_)
        assert adjacency[Vertex(1, "a")] == {Vertex(2, "b")}

    def test_triangle_is_fully_adjacent(self, triangle):
        adjacency = one_skeleton_adjacency(
            SimplicialComplex.from_simplex(triangle)
        )
        assert all(len(neighbors) == 2 for neighbors in adjacency.values())

    def test_isolated_vertices_have_no_neighbors(self, disconnected):
        adjacency = one_skeleton_adjacency(disconnected)
        assert all(not neighbors for neighbors in adjacency.values())


class TestComponents:
    def test_connected_path(self, path_complex):
        assert is_connected(path_complex)
        assert len(connected_components(path_complex)) == 1

    def test_disconnected(self, disconnected):
        assert not is_connected(disconnected)
        assert len(connected_components(disconnected)) == 2

    def test_empty_complex_not_connected(self):
        assert not is_connected(SimplicialComplex.empty())

    def test_subdivision_is_connected(self, iis, triangle):
        assert is_connected(iis.one_round_complex(triangle))


class TestDeterminism:
    """Regression: results are ordered by the canonical vertex order."""

    def test_adjacency_keys_follow_table_order(self, iis, triangle):
        complex_ = iis.one_round_complex(triangle)
        adjacency = one_skeleton_adjacency(complex_)
        assert list(adjacency) == complex_.sorted_vertices()

    def test_components_stable_across_runs(self, disconnected):
        first = connected_components(disconnected)
        second = connected_components(disconnected)
        assert first == second
        smallest = [
            min(component, key=lambda v: v._sort_key())
            for component in first
        ]
        assert smallest == sorted(smallest, key=lambda v: v._sort_key())

    @given(families())
    def test_adjacency_keys_in_table_order(self, family):
        complex_ = SimplicialComplex(family)
        assert (
            list(one_skeleton_adjacency(complex_))
            == complex_.sorted_vertices()
        )

    @given(families())
    def test_components_ordered_by_smallest_vertex(self, family):
        complex_ = SimplicialComplex(family)
        components = connected_components(complex_)
        smallest = [
            min(component, key=lambda v: v._sort_key())
            for component in components
        ]
        assert smallest == sorted(
            smallest, key=lambda v: v._sort_key()
        )
