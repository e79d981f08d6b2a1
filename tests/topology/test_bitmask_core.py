"""Bitmask core vs object-set reference on randomized complexes.

Every property here pits a mask-native :class:`SimplicialComplex`
operation against its retained seed implementation from
:mod:`tests.topology.reference` on hypothesis-generated chromatic
complexes, plus, as explicit examples, the one-round complexes
``P^(1)(σ)`` of every model family at ``n = 3``, whose ``View`` and
``(box output, View)`` vertex values the strategies never generate.  A
second group of tests pins the lazy-materialization contract of mask-born
complexes (built by ``SimplicialComplex._from_masks`` from a table and
facet masks alone): queries must be answerable without rebuilding ``Simplex``
objects.  A last group pins the interned :class:`VertexTable`.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ChromaticityError
from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    SnapshotModel,
    k_concurrency_model,
)
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.topology import Simplex, SimplicialComplex, Vertex, VertexTable
from repro.topology.complex import _prune_masks
from tests.topology import reference

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


def _one_round_facets():
    """The sorted facets of ``P^(1)(σ)`` at ``n = 3``, one list per model."""
    sigma = Simplex((i, f"x{i}") for i in range(1, 4))
    models = (
        CollectModel(),
        SnapshotModel(),
        ImmediateSnapshotModel(),
        k_concurrency_model(ImmediateSnapshotModel(), 2),
        AugmentedModel(TestAndSetBox()),
        AugmentedModel(
            BinaryConsensusBox(), beta_input_function({1: 1, 2: 0, 3: 1})
        ),
    )
    return [model.one_round_complex(sigma).sorted_facets() for model in models]


MODEL_FACETS = _one_round_facets()


def on_model_complexes(*builds):
    """Add the explicit examples ``build(facets)`` for every model family."""

    def decorate(test):
        for facets in MODEL_FACETS:
            for build in builds:
                test = example(*build(facets))(test)
        return test

    return decorate


def _whole(facets):
    return (facets,)


def _mixed_probe(facets):
    """A simplex of the complex's vertices that mixes two facets."""
    first, last = facets[0].vertices, facets[-1].vertices
    return (facets, Simplex(first[:1] + last[1:]))


def mask_born(complex_):
    """A copy of ``complex_`` built from its mask index alone."""
    table, masks = complex_._ensure_index()
    return SimplicialComplex._from_masks(table, masks)


class TestPruningParity:
    @on_model_complexes(_whole)
    @given(families())
    def test_init_prunes_like_the_reference(self, family):
        assert SimplicialComplex(family).facets == (
            reference.prune_reference(family)
        )

    @on_model_complexes(_whole)
    @given(families())
    def test_pruning_all_faces_reproduces_the_facets(self, family):
        complex_ = SimplicialComplex(family)
        candidates = [
            face for facet in complex_.facets for face in facet.faces()
        ]
        assert SimplicialComplex(candidates) == complex_


#: Chromatic-sized masks (at most 4 set bits) over a few bits, so that
#: random families often nest.
small_masks = st.sets(
    st.integers(min_value=0, max_value=7), min_size=1, max_size=4
).map(lambda bits: sum(1 << bit for bit in bits))


def _maximal_by_pairs(masks):
    """Quadratic oracle: the distinct masks no other mask contains."""
    distinct = set(masks)
    return {
        mask
        for mask in distinct
        if not any(
            mask != other and mask & other == mask for other in distinct
        )
    }


class TestPruneMasks:
    @given(st.lists(small_masks, max_size=40))
    def test_matches_the_quadratic_oracle(self, masks):
        pruned = _prune_masks(masks)
        assert len(pruned) == len(set(pruned))
        assert set(pruned) == _maximal_by_pairs(masks)


class TestQueryParity:
    @on_model_complexes(_whole)
    @given(families())
    def test_contains_present_faces(self, family):
        complex_ = SimplicialComplex(family)
        for face in reference.faces_reference(complex_.facets):
            assert face in complex_

    @on_model_complexes(_mixed_probe)
    @given(families(), simplices())
    def test_contains_arbitrary_probe(self, family, probe):
        complex_ = SimplicialComplex(family)
        assert (probe in complex_) == reference.contains_reference(
            complex_.facets, probe
        )

    @on_model_complexes(_whole)
    @given(families())
    def test_simplices_and_len(self, family):
        complex_ = SimplicialComplex(family)
        faces = reference.faces_reference(complex_.facets)
        assert complex_.simplices == faces
        assert len(complex_) == len(faces)

    @on_model_complexes(
        lambda facets: (facets, {1}), lambda facets: (facets, {2, 3})
    )
    @given(families(), st.sets(colors, max_size=3))
    def test_proj(self, family, keep):
        complex_ = SimplicialComplex(family)
        assert complex_.proj(keep).facets == reference.proj_reference(
            complex_.facets, keep
        )

    @on_model_complexes(_whole)
    @given(families())
    def test_f_vector(self, family):
        complex_ = SimplicialComplex(family)
        assert complex_.f_vector() == reference.f_vector_reference(
            complex_.facets
        )


class TestLazyMaterialization:
    """Mask-born complexes answer queries without rebuilding facets."""

    @given(families())
    def test_wire_born_complex_defers_facet_objects(self, family):
        original = SimplicialComplex(family)
        reborn = mask_born(original)
        assert reborn._facets is None  # not materialized at build time
        # Mask-level queries must not force materialization …
        assert reborn.facet_count == original.facet_count
        assert len(reborn) == len(original)
        assert reborn.dim == original.dim
        assert reborn == original
        assert hash(reborn) == hash(original)
        assert reborn._facets is None
        # … while the facets property materializes on demand.
        assert reborn.facets == original.facets

    @given(families())
    def test_mask_level_operations_stay_lazy(self, family):
        a = mask_born(SimplicialComplex(family))
        projected = a.proj(sorted(a.ids)[:1])
        assert a._facets is None
        assert projected._facets is None or projected.is_empty()

    @given(families())
    def test_reencoding_uses_the_existing_index(self, family):
        original = SimplicialComplex(family)
        reborn = mask_born(original)
        table, masks = reborn._ensure_index()
        assert table is original._ensure_index()[0]
        assert masks == original._ensure_index()[1]
        assert reborn._facets is None  # reading the index decodes nothing

    @given(families())
    def test_equal_complexes_share_one_interned_table(self, family):
        first = SimplicialComplex(family)
        second = SimplicialComplex(list(first.facets))
        assert first._ensure_index()[0] is second._ensure_index()[0]
        assert first._ensure_index()[1] == second._ensure_index()[1]


def _sorted_table(vertices):
    return VertexTable.interned_of(
        sorted(set(vertices), key=lambda v: v._sort_key())
    )


class TestVertexTable:
    @given(st.lists(st.tuples(colors, values), min_size=1, max_size=6))
    def test_interning_is_idempotent(self, pairs):
        vertices = [Vertex(c, v) for c, v in pairs]
        table = _sorted_table(vertices)
        assert _sorted_table(vertices) is table
        assert len(table) == len(set(vertices))
        for vertex in vertices:
            assert table.vertex_at(table.index_of(vertex)) == vertex

    @given(simplices())
    def test_mask_round_trip(self, sigma):
        table = _sorted_table(sigma.vertices)
        assert table.decode_mask_trusted(table.encode_mask(sigma)) == sigma

    @given(simplices())
    def test_encode_mask_is_strict(self, sigma):
        # Encoding never interns: a table without the vertices rejects
        # the simplex, and one holding them encodes it.
        with pytest.raises(ChromaticityError):
            VertexTable.interned_of(()).encode_mask(sigma)
        table = _sorted_table(sigma.vertices)
        assert table.encode_mask(sigma) == table.full_mask

    def test_encode_mask_rejects_stale_table(self):
        table = VertexTable.interned_of([Vertex(1, "a")])
        stale = Simplex([(1, "a"), (2, "b")])
        with pytest.raises(ChromaticityError):
            table.encode_mask(stale)
        # The strict probe must not have grown the table.
        assert len(table) == 1
