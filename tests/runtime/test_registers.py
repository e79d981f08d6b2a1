"""Unit tests for SWMR registers and register arrays."""

import pytest

from repro.errors import RuntimeModelError
from repro.runtime import RegisterArray, SWMRRegister


class TestSWMRRegister:
    def test_write_then_read(self):
        register = SWMRRegister(owner=1)
        register.write(1, "payload")
        assert register.read() == "payload"

    def test_unwritten_reads_none(self):
        assert SWMRRegister(owner=1).read() is None

    def test_single_writer_enforced(self):
        register = SWMRRegister(owner=1)
        with pytest.raises(RuntimeModelError):
            register.write(2, "intruder")


class TestRegisterArray:
    def test_write_and_read(self):
        array = RegisterArray((1, 2, 3))
        array.write(2, "x")
        assert array.read(2) == "x"
        assert array.read(1) is None

    def test_owner_enforced_per_slot(self):
        array = RegisterArray((1, 2))
        with pytest.raises(RuntimeModelError):
            array._registers[1].write(2, "intruder")

    def test_unknown_register(self):
        array = RegisterArray((1,))
        with pytest.raises(RuntimeModelError):
            array.write(9, "x")
        with pytest.raises(RuntimeModelError):
            array.read(9)

    def test_snapshot_only_sees_written(self):
        array = RegisterArray((1, 2, 3))
        array.write(1, "a")
        array.write(3, "c")
        assert array.snapshot() == {1: "a", 3: "c"}

    def test_written(self):
        array = RegisterArray((1, 2))
        assert array.written() == ()
        array.write(2, "x")
        assert array.written() == (2,)

    def test_written_in_id_order(self):
        array = RegisterArray((3, 1, 2))
        array.write(3, "z")
        array.write(1, "x")
        assert array.written() == (1, 3)

    def test_written_none_is_written(self):
        # None is a value a process may write, not the unwritten marker.
        array = RegisterArray((1, 2))
        array.write(1, None)
        assert array.snapshot() == {1: None}
        assert array.written() == (1,)
        assert array.read(1) is None
