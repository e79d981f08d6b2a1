"""Mask-sweep kernels vs object-set oracles on randomized complexes.

Three groups, mirroring the AUD016 contract over a wilder input
distribution than the audit sees:

* kernel unit tests pin the batch primitives of
  :mod:`repro.topology.kernels` on hand-checkable mask arrays;
* hypothesis parity tests pit the mask-native connectivity and
  structure algorithms against the retained object-set oracles of
  :mod:`repro.topology.reference`;
* lazy-materialization tests prove the sweeps are pure mask code: on a
  wire-born complex no ``Simplex`` may be decoded during a sweep.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.topology import (
    Simplex,
    SimplicialComplex,
    connected_components,
    decode_complex,
    encode_complex,
    is_connected,
    one_skeleton_adjacency,
    shortest_path,
)
from repro.topology import reference
from repro.topology.kernels import (
    bfs_parents,
    component_count,
    component_labels,
    facet_adjacency,
    filter_intersecting,
    filter_subsets,
    filter_supersets,
    iter_ridges,
    mask_components,
    max_popcount,
    pairwise_intersections,
    pairwise_unions,
    popcount_sweep,
    ridge_table,
    vertex_adjacency,
)
from repro.topology.structure import (
    boundary_complex,
    is_pseudomanifold,
    join_complexes,
    ridge_incidence,
)
from repro.topology.table import VertexTable

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


class TestKernelPrimitives:
    def test_popcount_sweep(self):
        assert popcount_sweep([0b1011, 0b1, 0, 0b1111]) == [3, 1, 0, 4]
        assert popcount_sweep([]) == []

    def test_max_popcount(self):
        assert max_popcount([0b11, 0b10110, 0b1]) == 3
        assert max_popcount([]) == 0

    def test_containment_filters(self):
        masks = [0b001, 0b011, 0b110, 0b111]
        assert filter_subsets(masks, 0b011) == [0b001, 0b011]
        assert filter_supersets(masks, 0b010) == [0b011, 0b110, 0b111]
        assert filter_intersecting(masks, 0b100) == [0b110, 0b111]

    def test_pairwise_products(self):
        left, right = [0b011, 0b100], [0b110, 0b001]
        assert pairwise_intersections(left, right) == [0b010, 0b001, 0b100]
        assert pairwise_unions(left, right) == [
            0b111,
            0b011,
            0b110,
            0b101,
        ]

    def test_iter_ridges_clears_one_bit_each(self):
        assert list(iter_ridges(0b1101)) == [0b1100, 0b1001, 0b0101]
        assert list(iter_ridges(0b0100)) == []
        assert list(iter_ridges(0)) == []

    def test_ridge_table_positions(self):
        # Two triangles sharing the edge {0,1}, plus an isolated vertex.
        masks = [0b0111, 0b1011, 0b10000]
        table = ridge_table(masks)
        assert table[0b0011] == [0, 1]
        assert table[0b0110] == [0]
        assert table[0b1010] == [1]
        assert 0b10000 not in table

    def test_vertex_adjacency(self):
        adjacency = vertex_adjacency([0b0111, 0b11000], 5)
        assert adjacency == [0b00110, 0b00101, 0b00011, 0b10000, 0b01000]

    def test_facet_adjacency_via_shared_ridges(self):
        masks = [0b0111, 0b1011, 0b110000]
        adjacency = facet_adjacency(masks)
        assert adjacency == [0b010, 0b001, 0b000]

    def test_component_labels_and_count(self):
        adjacency = [0b0010, 0b0001, 0b1000, 0b0100, 0b00000]
        assert component_labels(adjacency) == [0, 0, 2, 2, 4]
        assert component_count(adjacency) == 3

    def test_mask_components_orders_by_lowest_bit(self):
        # {0,1} ∪ {3,4} with bit 2 unused by any mask.
        assert mask_components([0b00011, 0b11000], 5) == [0b00011, 0b11000]
        assert mask_components([], 5) == []

    def test_bfs_parents_shortest_tree(self):
        # Path graph 0 – 1 – 2 – 3.
        adjacency = [0b0010, 0b0101, 0b1010, 0b0100]
        parents = bfs_parents(adjacency, 0)
        assert parents == [0, 0, 1, 2]
        # Early exit at the goal still fixes the goal's parent.
        assert bfs_parents(adjacency, 0, goal=2)[2] == 1

    def test_bfs_parents_unreachable_is_minus_one(self):
        parents = bfs_parents([0b10, 0b01, 0b00], 0)
        assert parents == [0, 0, -1]


class TestConnectivityParity:
    @given(families())
    def test_adjacency_matches_oracle(self, family):
        complex_ = SimplicialComplex(family)
        assert one_skeleton_adjacency(
            complex_
        ) == reference.adjacency_reference(complex_.facets)

    @given(families())
    def test_components_match_oracle(self, family):
        complex_ = SimplicialComplex(family)
        assert connected_components(
            complex_
        ) == reference.components_reference(complex_.facets)
        assert is_connected(complex_) == (
            len(reference.components_reference(complex_.facets)) == 1
        )

    @given(families())
    def test_shortest_path_matches_oracle_length(self, family):
        complex_ = SimplicialComplex(family)
        vertices = complex_.sorted_vertices()
        start, goal = vertices[0], vertices[-1]
        path = shortest_path(complex_, start, goal)
        oracle = reference.shortest_path_reference(
            complex_.facets, start, goal
        )
        if oracle is None:
            assert path is None
        else:
            assert path is not None
            assert len(path) == len(oracle)
            assert path[0] == start and path[-1] == goal
            adjacency = reference.adjacency_reference(complex_.facets)
            for left, right in zip(path, path[1:]):
                assert right in adjacency[left]


class TestStructureParity:
    @given(families())
    def test_ridge_incidence_matches_oracle(self, family):
        complex_ = SimplicialComplex(family)
        live = {
            ridge: frozenset(found)
            for ridge, found in ridge_incidence(complex_).items()
        }
        oracle = {
            ridge: frozenset(found)
            for ridge, found in reference.ridge_incidence_reference(
                complex_.facets
            ).items()
        }
        assert live == oracle

    @given(families())
    def test_pseudomanifold_matches_oracle(self, family):
        complex_ = SimplicialComplex(family)
        for require_connected in (True, False):
            assert is_pseudomanifold(
                complex_, require_connected
            ) == reference.is_pseudomanifold_reference(
                complex_.facets, require_connected
            )

    @given(families())
    def test_boundary_matches_oracle(self, family):
        complex_ = SimplicialComplex(family)
        assert boundary_complex(
            complex_
        ).facets == reference.boundary_reference(complex_.facets)

    @given(families(max_size=4), families(max_size=4))
    def test_join_matches_pruning_oracle(self, left, right):
        # Shift the right side's colors out of the left's range so the
        # join is chromatic; the kernel join skips the pruning pass and
        # must still equal the oracle that prunes defensively.
        shifted = [
            Simplex(
                (vertex.color + 10, vertex.value)
                for vertex in simplex.vertices
            )
            for simplex in right
        ]
        a = SimplicialComplex(left)
        b = SimplicialComplex(shifted)
        assert join_complexes(a, b).facets == reference.join_reference(
            a.facets, b.facets
        )


class TestLazyMaterialization:
    """Pure-mask sweeps never decode a Simplex from the index."""

    def _wire_born(self, family):
        reborn = decode_complex(encode_complex(SimplicialComplex(family)))
        assert reborn._facets is None
        return reborn

    @given(families())
    def test_sweeps_leave_wire_born_facets_unmaterialized(self, family):
        reborn = self._wire_born(family)
        connected_components(reborn)
        is_connected(reborn)
        is_pseudomanifold(reborn)
        is_pseudomanifold(reborn, require_connected=False)
        boundary = boundary_complex(reborn)
        assert reborn._facets is None
        assert boundary._facets is None or boundary.is_empty()

    def test_mask_sweep_never_decodes(self, monkeypatch, triangle):
        reborn = self._wire_born([triangle])

        def boom(self, mask):
            raise AssertionError(
                "a pure-mask sweep decoded a Simplex"
            )

        monkeypatch.setattr(VertexTable, "decode_mask", boom)
        monkeypatch.setattr(VertexTable, "decode_mask_trusted", boom)
        assert is_pseudomanifold(reborn)
        assert is_connected(reborn)
        assert len(connected_components(reborn)) == 1
        assert boundary_complex(reborn).facet_count == 3


class TestDeterminism:
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
