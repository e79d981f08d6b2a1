"""Property oracles and the execution classification lattice.

Every chaos execution lands in exactly one bucket:

* ``DECIDED_OK`` — all survivors decided and every checked property holds;
* ``VIOLATION`` — survivors decided but a task property failed (the
  attached :class:`Violation` names the property and carries a witness);
* ``HUNG`` — the execution exceeded its step budget or wall-clock
  deadline (:class:`~repro.errors.ExecutionBudgetExceeded`);
* ``HARNESS_FAULT_DETECTED`` — the runtime's safety net fired
  (:class:`~repro.errors.FaultInjectionError`), the *expected* outcome
  when an illegal fault mode is active.

Oracles check decisions only — they are deliberately independent from the
algorithms and the executors, so an executor bug and an algorithm bug are
both visible to the same referee.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import RuntimeModelError
from repro.runtime.iterated import ExecutionResult

__all__ = [
    "DECIDED_OK",
    "VIOLATION",
    "HUNG",
    "HARNESS_FAULT_DETECTED",
    "Violation",
    "PropertyOracle",
    "ConsensusOracle",
    "ApproximateAgreementOracle",
    "KSetAgreementOracle",
]

#: Classification labels (stable strings: they appear in JSON reports).
DECIDED_OK = "DECIDED_OK"
VIOLATION = "VIOLATION"
HUNG = "HUNG"
HARNESS_FAULT_DETECTED = "HARNESS_FAULT_DETECTED"


@dataclass(frozen=True)
class Violation:
    """A falsified property with a human-readable witness."""

    property: str
    witness: str


class PropertyOracle:
    """Judge one execution's decisions against a task's properties.

    Subclasses implement :meth:`check`; returning ``None`` means every
    property holds.  ``check`` receives the original inputs and the full
    :class:`~repro.runtime.iterated.ExecutionResult` (decisions are only
    expected from surviving processes — wait-freedom never requires
    crashed processes to decide).
    """

    #: Label used in reports.
    name = "oracle"

    def check(
        self,
        inputs: Mapping[int, Hashable],
        result: ExecutionResult,
    ) -> Violation | None:
        raise NotImplementedError

    def _require_decisions(self, result: ExecutionResult) -> Violation | None:
        if not result.decisions:
            return Violation(
                "termination", "no surviving process decided"
            )
        undecided = sorted(
            process
            for process, value in result.decisions.items()
            if value is None
        )
        if undecided:
            return Violation(
                "termination",
                f"survivors {undecided} decided None",
            )
        return None


class ConsensusOracle(PropertyOracle):
    """Agreement (one output value) and validity (some process's input)."""

    name = "consensus"

    def check(
        self,
        inputs: Mapping[int, Hashable],
        result: ExecutionResult,
    ) -> Violation | None:
        missing = self._require_decisions(result)
        if missing is not None:
            return missing
        values = set(result.decisions.values())
        if len(values) > 1:
            return Violation(
                "agreement",
                f"decisions {sorted(result.decisions.items())} "
                f"contain {len(values)} distinct values",
            )
        decided = next(iter(values))
        if decided not in set(inputs.values()):
            return Violation(
                "validity",
                f"decision {decided!r} is not any process's input "
                f"{sorted(map(repr, set(inputs.values())))}",
            )
        return None


class ApproximateAgreementOracle(PropertyOracle):
    """ε-agreement (spread ≤ ε) and range validity for ε-AA."""

    name = "approximate-agreement"

    def __init__(self, epsilon: Fraction) -> None:
        self.epsilon = Fraction(epsilon)
        if self.epsilon <= 0:
            raise RuntimeModelError("ε must be positive")

    def check(
        self,
        inputs: Mapping[int, Hashable],
        result: ExecutionResult,
    ) -> Violation | None:
        missing = self._require_decisions(result)
        if missing is not None:
            return missing
        decisions = {
            process: _as_fraction(value)
            for process, value in result.decisions.items()
        }
        lowest = min(decisions.values())
        highest = max(decisions.values())
        spread = highest - lowest
        if spread > self.epsilon:
            return Violation(
                "epsilon-agreement",
                f"spread {spread} > ε = {self.epsilon} for decisions "
                f"{sorted((p, str(v)) for p, v in decisions.items())}",
            )
        values = [_as_fraction(value) for value in inputs.values()]
        lo = min(values)
        hi = max(values)
        if lowest < lo or highest > hi:
            outliers = sorted(
                (process, str(value))
                for process, value in decisions.items()
                if not lo <= value <= hi
            )
            return Violation(
                "range-validity",
                f"decisions {outliers} leave the input range "
                f"[{lo}, {hi}]",
            )
        return None


def _as_fraction(value: Hashable) -> Fraction:
    """``value`` as a :class:`Fraction`, converting only when needed."""
    return value if isinstance(value, Fraction) else Fraction(value)


class KSetAgreementOracle(PropertyOracle):
    """At most ``k`` distinct outputs, each some process's input."""

    name = "k-set-agreement"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise RuntimeModelError("k must be at least 1")
        self.k = k

    def check(
        self,
        inputs: Mapping[int, Hashable],
        result: ExecutionResult,
    ) -> Violation | None:
        missing = self._require_decisions(result)
        if missing is not None:
            return missing
        values = set(result.decisions.values())
        if len(values) > self.k:
            return Violation(
                "k-agreement",
                f"{len(values)} distinct decisions exceed k = {self.k}: "
                f"{sorted(map(repr, values))}",
            )
        invalid = values - set(inputs.values())
        if invalid:
            return Violation(
                "validity",
                f"decisions {sorted(map(repr, invalid))} are nobody's "
                "input",
            )
        return None
