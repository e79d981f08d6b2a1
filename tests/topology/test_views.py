"""Unit tests for full-information views."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from repro.errors import ChromaticityError
from repro.topology import Vertex, View


class TestViewConstruction:
    def test_from_mapping(self):
        view = View({1: "a", 2: "b"})
        assert view[1] == "a"
        assert view[2] == "b"

    def test_from_pairs(self):
        view = View([(2, "b"), (1, "a")])
        assert view.items == ((1, "a"), (2, "b"))  # sorted by color

    def test_from_vertices(self):
        view = View([Vertex(1, "a"), Vertex(2, "b")])
        assert view[1] == "a"

    def test_duplicate_color_rejected(self):
        with pytest.raises(ChromaticityError):
            View([(1, "a"), (1, "b")])

    def test_non_int_color_rejected(self):
        with pytest.raises(ChromaticityError):
            View([("1", "a")])

    def test_empty_view_allowed(self):
        assert len(View([])) == 0


class TestViewAccessors:
    def test_mapping_protocol(self):
        view = View({1: "a", 2: "b"})
        assert 1 in view
        assert 3 not in view
        assert view.get(3) is None
        assert view.get(3, "dflt") == "dflt"
        assert len(view) == 2
        assert list(view) == [(1, "a"), (2, "b")]

    def test_ids(self):
        assert View({5: "x", 2: "y"}).ids == frozenset({2, 5})

    def test_values_in_color_order(self):
        assert View({2: "b", 1: "a"}).values() == ("a", "b")

    def test_vertices(self):
        vertices = View({1: "a", 2: "b"}).vertices()
        assert vertices == (Vertex(1, "a"), Vertex(2, "b"))


class TestViewSemantics:
    def test_subview(self):
        small = View({1: "a"})
        big = View({1: "a", 2: "b"})
        assert small.is_subview_of(big)
        assert not big.is_subview_of(small)

    def test_subview_requires_equal_values(self):
        assert not View({1: "a"}).is_subview_of(View({1: "z", 2: "b"}))

    def test_equality_and_hash(self):
        assert View({1: "a", 2: "b"}) == View([(2, "b"), (1, "a")])
        assert hash(View({1: "a"})) == hash(View({1: "a"}))
        assert View({1: "a"}) != View({1: "b"})

    def test_view_nestable_as_vertex_value(self):
        inner = View({1: "x"})
        outer = View({1: inner, 2: inner})
        assert outer[1] == inner
        assert hash(outer)  # nested views must stay hashable

    def test_repr_is_stable(self):
        assert repr(View({2: "b", 1: "a"})) == repr(View({1: "a", 2: "b"}))


class TestViewInterning:
    def test_equal_views_are_one_object(self):
        from_dict = View({1: "a", 2: View({3: "c"})})
        from_pairs = View([(2, View([(3, "c")])), (1, "a")])
        from_vertices = View([Vertex(1, "a"), Vertex(2, View({3: "c"}))])
        assert from_dict is from_pairs is from_vertices

    def test_derived_views_are_interned(self):
        view = View({1: "a", 2: "b"})
        assert View(view.items[:1]) is View({1: "a"})

    def test_equal_values_of_different_types_stay_distinct(self):
        as_bool, as_int = View({1: True}), View({1: 1})
        as_fraction = View({1: Fraction(1)})
        assert as_bool is not as_int and as_int is not as_fraction
        assert as_bool == as_int == as_fraction  # structural fallback
        assert repr(as_bool) == "View({1:True})"
        assert repr(as_int) == "View({1:1})"
        assert repr(as_fraction) == "View({1:Fraction(1, 1)})"

    def test_distinct_types_inside_nested_views_stay_distinct(self):
        inner_int, inner_bool = View({1: 0}), View({1: False})
        outer_int = View({2: (0, inner_int)})
        outer_bool = View({2: (0, inner_bool)})
        assert outer_int is not outer_bool
        assert View({2: (0, View({1: 0}))}) is outer_int
        assert repr(outer_bool) == "View({2:(0, View({1:False}))})"

    def test_bool_colors_stay_distinct_from_int_colors(self):
        assert View({True: "a"}) is not View({1: "a"})
        assert repr(View({True: "a"})) == "View({True:'a'})"

    def test_validation_still_runs(self):
        with pytest.raises(ChromaticityError):
            View([(1, "a"), (1, "a")])
        with pytest.raises(ChromaticityError):
            View({"1": "a"})

    def test_registry_keeps_nothing_alive(self):
        view = View({1: "dropped-view", 2: View({1: "dropped-inner"})})
        ref = weakref.ref(view)
        inner_ref = weakref.ref(view[2])
        del view
        gc.collect()
        assert ref() is None
        assert inner_ref() is None

    def test_pickle_and_copy_reintern(self):
        view = View({1: View({1: Fraction(1, 2)}), 2: (True, View({2: 0}))})
        assert pickle.loads(pickle.dumps(view)) is view
        assert copy.copy(view) is view
        assert copy.deepcopy(view) is view
