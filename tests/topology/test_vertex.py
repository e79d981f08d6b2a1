"""Unit tests for chromatic vertices and the structural sort key."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from repro.topology import Vertex, View
from repro.topology.vertex import value_sort_key


class TestVertexBasics:
    def test_color_and_value_accessors(self):
        vertex = Vertex(3, "payload")
        assert vertex.color == 3
        assert vertex.value == "payload"

    def test_color_must_be_int(self):
        with pytest.raises(TypeError):
            Vertex("1", "x")

    def test_equality_and_hash(self):
        assert Vertex(1, "x") == Vertex(1, "x")
        assert Vertex(1, "x") != Vertex(2, "x")
        assert Vertex(1, "x") != Vertex(1, "y")
        assert hash(Vertex(1, "x")) == hash(Vertex(1, "x"))

    def test_not_equal_to_plain_tuple(self):
        assert Vertex(1, "x") != (1, "x")

    def test_repr_mentions_color_and_value(self):
        text = repr(Vertex(7, "v"))
        assert "7" in text
        assert "v" in text


class TestVertexOrdering:
    def test_orders_by_color_first(self):
        assert Vertex(1, "zzz") < Vertex(2, "aaa")

    def test_same_color_orders_by_value(self):
        assert Vertex(1, Fraction(1, 4)) < Vertex(1, Fraction(1, 2))

    def test_sorting_is_deterministic_across_types(self):
        vertices = [
            Vertex(1, "s"),
            Vertex(1, 3),
            Vertex(1, Fraction(1, 2)),
            Vertex(1, (1, 2)),
            Vertex(1, None),
        ]
        once = sorted(vertices)
        twice = sorted(reversed(vertices))
        assert once == twice


class TestValueSortKey:
    def test_numbers_order_numerically(self):
        assert value_sort_key(Fraction(1, 3)) < value_sort_key(Fraction(1, 2))
        assert value_sort_key(1) < value_sort_key(2)

    def test_int_and_fraction_interleave(self):
        assert value_sort_key(Fraction(3, 2)) < value_sort_key(2)

    def test_numbers_a_float_cannot_separate_order_exactly(self):
        # Both pairs round to one float (or overflow it); the exact
        # value after the float must still decide.
        third = Fraction(1, 3)
        above = third + Fraction(1, 10**30)
        assert float(third) == float(above)
        assert value_sort_key(third) < value_sort_key(above)
        assert value_sort_key(10**400) < value_sort_key(10**400 + 1)
        assert value_sort_key(-(10**400)) < value_sort_key(0)
        assert value_sort_key(2) == value_sort_key(Fraction(4, 2))

    def test_bool_has_own_tag(self):
        assert value_sort_key(True)[0] == "bool"
        assert value_sort_key(1)[0] == "num"

    def test_tuple_recursive(self):
        assert value_sort_key((1, 2)) < value_sort_key((1, 3))

    def test_frozenset_order_insensitive(self):
        assert value_sort_key(frozenset({1, 2})) == value_sort_key(
            frozenset({2, 1})
        )

    def test_mixed_types_never_raise(self):
        keys = [value_sort_key(v) for v in [1, "a", (1,), frozenset(), None]]
        assert sorted(keys) == sorted(keys)  # comparable without TypeError


class TestVertexInterning:
    def test_equal_vertices_are_one_object(self):
        assert Vertex(1, Fraction(1, 2)) is Vertex(1, Fraction(2, 4))
        assert Vertex(2, View({1: "a"})) is Vertex(2, View([(1, "a")]))

    def test_equal_values_of_different_types_stay_distinct(self):
        as_int, as_fraction = Vertex(1, 0), Vertex(1, Fraction(0))
        assert as_int is not as_fraction
        assert as_int == as_fraction  # structural fallback
        assert repr(as_int) == "Vertex(1, 0)"
        assert repr(as_fraction) == "Vertex(1, Fraction(0, 1))"
        assert Vertex(1, True) is not Vertex(1, 1)
        assert Vertex(True, "x") is not Vertex(1, "x")

    def test_augmented_payloads_stay_distinct(self):
        view = View({1: "a"})
        as_int, as_bool = Vertex(1, (0, view)), Vertex(1, (False, view))
        assert as_int is not as_bool
        assert Vertex(1, (0, View({1: "a"}))) is as_int
        assert repr(as_bool) == "Vertex(1, (False, View({1:'a'})))"

    def test_color_check_still_runs(self):
        with pytest.raises(TypeError):
            Vertex(1.0, "x")

    def test_registry_keeps_nothing_alive(self):
        vertex = Vertex(1, ("dropped-vertex", View({1: "dropped"})))
        ref = weakref.ref(vertex)
        del vertex
        gc.collect()
        assert ref() is None

    def test_pickle_and_copy_reintern(self):
        vertex = Vertex(2, (1, View({1: View({2: Fraction(1, 3)})})))
        assert pickle.loads(pickle.dumps(vertex)) is vertex
        assert copy.copy(vertex) is vertex
        assert copy.deepcopy(vertex) is vertex
