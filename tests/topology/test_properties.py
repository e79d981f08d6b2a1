"""Property-based tests for the topology substrate (hypothesis)."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.topology import Simplex, SimplicialComplex, Vertex, View
from repro.topology.vertex import value_sort_key

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

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
def complexes(draw, max_facets=4):
    facets = draw(st.lists(simplices(), min_size=1, max_size=max_facets))
    return SimplicialComplex(facets)


# ---------------------------------------------------------------------------
# Vertex / value ordering
# ---------------------------------------------------------------------------


@given(values, values)
def test_value_sort_key_total(a, b):
    ka, kb = value_sort_key(a), value_sort_key(b)
    assert (ka < kb) or (kb < ka) or (ka == kb)


@given(values, values, values)
def test_value_sort_key_transitive(a, b, c):
    ka, kb, kc = sorted([value_sort_key(a), value_sort_key(b), value_sort_key(c)])
    assert ka <= kb <= kc


@given(st.lists(st.tuples(colors, values), min_size=1, max_size=6))
def test_vertex_sorting_stable(pairs):
    vertices = [Vertex(c, v) for c, v in pairs]
    assert sorted(vertices) == sorted(reversed(vertices))


# ---------------------------------------------------------------------------
# Simplices
# ---------------------------------------------------------------------------


@given(simplices())
def test_simplex_faces_closed_under_inclusion(simplex):
    faces = set(simplex.faces())
    for face in faces:
        for sub in face.faces():
            assert sub in faces


@given(simplices())
def test_simplex_face_count(simplex):
    # 2^(dim+1) - 1 non-empty subsets.
    assert len(list(simplex.faces())) == 2 ** len(simplex) - 1


@given(simplices())
def test_projection_roundtrip(simplex):
    assert simplex.proj(simplex.ids) == simplex


@given(simplices())
def test_every_face_is_a_face(simplex):
    for face in simplex.faces():
        assert face.is_face_of(simplex)


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------


@given(complexes())
def test_complex_downward_closed(complex_):
    for simplex in complex_.simplices:
        for face in simplex.faces():
            assert face in complex_


@given(complexes())
def test_facets_are_maximal(complex_):
    for facet in complex_.facets:
        for other in complex_.facets:
            if facet != other:
                assert not facet.is_face_of(other)


@given(complexes())
def test_f_vector_sums_to_simplex_count(complex_):
    assert sum(complex_.f_vector()) == len(complex_.simplices)


@given(complexes())
def test_proj_is_subcomplex_on_colors(complex_):
    for color in complex_.ids:
        projected = complex_.proj([color])
        assert projected.ids <= {color}
        assert projected.simplices <= complex_.simplices


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


@given(st.dictionaries(colors, values, min_size=0, max_size=5))
def test_view_roundtrip(mapping):
    view = View(mapping)
    assert dict(view.items) == mapping
    assert view == View(list(mapping.items()))


@given(st.dictionaries(colors, values, min_size=1, max_size=5))
def test_restrict_then_subview(mapping):
    view = View(mapping)
    some = list(mapping)[: max(1, len(mapping) // 2)]
    assert View({color: mapping[color] for color in some}).is_subview_of(view)
