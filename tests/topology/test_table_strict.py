"""VertexTable strict-mode error paths, pickling, and mask_components."""

import gc
import pickle

import pytest

from repro.errors import ChromaticityError
from repro.topology import Simplex, Vertex, VertexTable
from repro.topology.table import mask_components

VERTICES = (Vertex(1, "x"), Vertex(2, "y"), Vertex(3, "z"))


class TestStrictEncoding:
    def test_encode_mask_raises_on_unknown_vertex(self):
        table = VertexTable.interned_of(VERTICES[:2])
        stranger = Simplex([(1, "x"), (3, "z")])
        with pytest.raises(ChromaticityError, match="not interned"):
            table.encode_mask(stranger)

    def test_encode_mask_does_not_intern_on_failure(self):
        table = VertexTable.interned_of(VERTICES[:2])
        before = table.vertices
        with pytest.raises(ChromaticityError):
            table.encode_mask(Simplex([(3, "z")]))
        assert table.vertices == before


class TestDecodeRangeChecks:
    def test_trusted_decode_agrees_with_checked_on_valid_masks(self):
        # The checking Simplex constructor over the set bits is the
        # reference decode.
        table = VertexTable.interned_of(VERTICES)
        for mask in range(1, 1 << len(table)):
            expected = Simplex(
                [v for i, v in enumerate(VERTICES) if mask >> i & 1]
            )
            assert table.decode_mask_trusted(mask) == expected

    def test_trusted_decode_skips_the_range_check(self):
        # The "trusted" contract: callers guarantee in-range masks, so
        # the method indexes straight into the vertex list.
        table = VertexTable.interned_of(VERTICES)
        with pytest.raises(IndexError):
            table.decode_mask_trusted(1 << len(table))


class TestPicklingFlavour:
    def test_interned_table_round_trips_interned(self):
        table = VertexTable.interned_of(VERTICES)
        restored = pickle.loads(pickle.dumps(table))
        assert restored.vertices == table.vertices
        # Rejoins the weak registry: same object as a fresh intern.
        assert restored is VertexTable.interned_of(VERTICES)

    def test_sortedness_survives_the_round_trip(self):
        vertices = sorted(reversed(VERTICES), key=lambda v: v._sort_key())
        table = VertexTable.interned_of(vertices)
        restored = pickle.loads(pickle.dumps(table))
        keys = [vertex._sort_key() for vertex in restored.vertices]
        assert keys == sorted(keys)
        assert restored.decode_mask_trusted(restored.full_mask) == Simplex(
            VERTICES
        )

    def test_table_ids_are_process_local_not_pickled(self):
        vertices = (Vertex(1, "pickled-id"), Vertex(2, "pickled-id"))
        table = VertexTable.interned_of(vertices)
        payload, table_id = pickle.dumps(table), table.table_id
        del table
        gc.collect()
        # The registry dropped the table; unpickling interns a new one.
        assert pickle.loads(payload).table_id != table_id


class TestMaskComponents:
    def test_mask_components_orders_by_lowest_bit(self):
        # {0,1} ∪ {3,4} with bit 2 unused by any mask.
        assert mask_components([0b00011, 0b11000], 5) == [0b00011, 0b11000]
        assert mask_components([], 5) == []
