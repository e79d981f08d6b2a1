"""Single-writer multiple-reader registers.

The iterated model organizes shared memory as arrays ``M_r`` of ``n`` SWMR
registers, one per process and per round (Section 2.1).  Registers enforce
the single-writer discipline.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import RuntimeModelError

__all__ = ["SWMRRegister", "RegisterArray"]

#: The content of a register nobody has written yet.  A process may write
#: ``None`` (an algorithm state like any other), so ``None`` cannot mean
#: "unwritten".
_UNWRITTEN: Any = object()


@dataclass
class SWMRRegister:
    """A single-writer multiple-reader atomic register.

    Attributes
    ----------
    owner:
        The only process allowed to write.
    value:
        Current content.  Registers start empty each round, holding a
        private "unwritten" marker that :meth:`read` reports as ``None``.
    """

    owner: int
    value: Hashable = _UNWRITTEN

    def write(self, process: int, value: Hashable) -> None:
        """Atomic write; only the owner may call this."""
        if process != self.owner:
            raise RuntimeModelError(
                f"process {process} attempted to write register of "
                f"process {self.owner}"
            )
        self.value = value

    def read(self) -> Optional[Hashable]:
        """Atomic read; ``None`` when the owner has not written yet."""
        value = self.value
        return None if value is _UNWRITTEN else value


class RegisterArray:
    """One round's array ``M_r`` of SWMR registers, one per process."""

    def __init__(self, ids: tuple[int, ...]) -> None:
        # Kept in id order, so written() needs no sort.
        self._registers: dict[int, SWMRRegister] = {
            process: SWMRRegister(owner=process) for process in sorted(ids)
        }

    def write(self, process: int, value: Hashable) -> None:
        """``M_r[process] ← value`` (owner-checked)."""
        try:
            register = self._registers[process]
        except KeyError:
            raise RuntimeModelError(
                f"no register for process {process} in this array"
            ) from None
        register.write(process, value)

    def read(self, process: int) -> Optional[Hashable]:
        """Read one register (any process may call)."""
        try:
            return self._registers[process].read()
        except KeyError:
            raise RuntimeModelError(
                f"no register for process {process} in this array"
            ) from None

    def snapshot(self) -> dict[int, Hashable]:
        """An atomic snapshot: every written register, in one step."""
        return {
            process: register.value
            for process, register in self._registers.items()
            if register.value is not _UNWRITTEN
        }

    def written(self) -> tuple[int, ...]:
        """The processes that have written so far, in id order."""
        return tuple(
            process
            for process, register in self._registers.items()
            if register.value is not _UNWRITTEN
        )
