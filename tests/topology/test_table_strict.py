"""VertexTable strict-mode error paths, pickling, and mask_components."""

import gc
import pickle

import pytest

from repro.errors import ChromaticityError
from repro.topology import Simplex, VertexTable
from repro.topology.table import mask_components

PAIRS = ((1, "x"), (2, "y"), (3, "z"))


class TestStrictEncoding:
    def test_encode_mask_raises_on_unknown_vertex(self):
        table = VertexTable.interned(PAIRS[:2])
        stranger = Simplex([(1, "x"), (3, "z")])
        with pytest.raises(ChromaticityError, match="not interned"):
            table.encode_mask(stranger)

    def test_encode_mask_does_not_intern_on_failure(self):
        table = VertexTable.interned(PAIRS[:2])
        before = table.pairs
        with pytest.raises(ChromaticityError):
            table.encode_mask(Simplex([(3, "z")]))
        assert table.pairs == before


class TestDecodeRangeChecks:
    def test_decode_mask_rejects_non_positive_masks(self):
        table = VertexTable.interned(PAIRS)
        with pytest.raises(ChromaticityError, match="positive"):
            table.decode_mask(0)
        with pytest.raises(ChromaticityError, match="positive"):
            table.decode_mask(-1)

    def test_decode_mask_rejects_out_of_range_bits(self):
        table = VertexTable.interned(PAIRS)
        with pytest.raises(ChromaticityError, match="exceeds"):
            table.decode_mask(1 << len(table))

    def test_trusted_decode_agrees_with_checked_on_valid_masks(self):
        table = VertexTable.interned(PAIRS)
        for mask in range(1, 1 << len(table)):
            assert table.decode_mask_trusted(mask) == table.decode_mask(
                mask
            )

    def test_trusted_decode_skips_the_range_check(self):
        # The "trusted" contract: callers guarantee in-range masks, so
        # the method indexes straight into the vertex list.
        table = VertexTable.interned(PAIRS)
        with pytest.raises(IndexError):
            table.decode_mask_trusted(1 << len(table))


class TestPicklingFlavour:
    def test_interned_table_round_trips_interned(self):
        table = VertexTable.interned(PAIRS)
        restored = pickle.loads(pickle.dumps(table))
        assert restored.pairs == table.pairs
        # Rejoins the weak registry: same object as a fresh intern.
        assert restored is VertexTable.interned(PAIRS)

    def test_sortedness_survives_the_round_trip(self):
        sorted_table = VertexTable.interned(PAIRS)
        shuffled = VertexTable.interned(tuple(reversed(PAIRS)))
        assert sorted_table.is_sorted
        assert not shuffled.is_sorted
        assert pickle.loads(pickle.dumps(sorted_table)).is_sorted
        assert not pickle.loads(pickle.dumps(shuffled)).is_sorted

    def test_table_ids_are_process_local_not_pickled(self):
        pairs = ((1, "pickled-id"), (2, "pickled-id"))
        table = VertexTable.interned(pairs)
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
