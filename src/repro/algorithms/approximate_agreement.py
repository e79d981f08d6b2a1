"""Wait-free approximate agreement algorithms in IIS (no objects).

Both algorithms avoid averaging so that every intermediate value stays on
the grid ``{0, 1/m, …, 1}``, exactly as the paper's Section 5 requires.

**HalvingAA** (``n ≥ 3``, ``⌈log₂ 1/ε⌉`` rounds).  At round ``r`` with
round parameter ``ε_r = 2^{t-r}·ε``, each process applies Eq. (3) to the
values it saw::

    v ← min( max(seen), min(seen) + ε_r )

Invariant: entering round ``r`` the values span at most ``2·ε_r``; the
proof of Claim 3 shows one immediate-snapshot round of this map brings the
span to ``ε_r`` — halving per round, reaching ``ε_t = ε`` after ``t``
rounds.  Values never leave the input range and stay on the grid because
``ε_r`` is a multiple of ``1/m``.

**TwoProcessThirdsAA** (``n = 2``, ``⌈log₃ 1/ε⌉`` rounds).  At round ``r``
with ``ε_r = 3^{t-r}·ε``, the process holding the smaller value (ties
broken by process ID) plays the role of ``p₁`` in Eq. (2)::

    p₁ solo:   keep lo               p₁ seeing both:  min(hi, lo + 2·ε_r)
    p₂ solo:   keep hi               p₂ seeing both:  min(hi, lo + ε_r)

dividing the span by 3 per round — which is why 2-process approximate
agreement is *faster* (base 3) than the general case (base 2), matching the
crossover in Corollary 3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Union

from repro.core.lower_bounds import ceil_log
from repro.errors import RuntimeModelError
from repro.runtime.algorithm import RoundAlgorithm

__all__ = ["HalvingAA", "TwoProcessThirdsAA", "NonIteratedHalvingAA"]

Rational = Union[Fraction, int, str]


def _round_parameters(
    epsilon: Fraction, base: int, rounds: int
) -> dict[int, Fraction]:
    """``{r: base^{t-r}·ε}`` for ``r = 1..t``: computed once per algorithm."""
    return {
        round_index: epsilon * base ** (rounds - round_index)
        for round_index in range(1, rounds + 1)
    }


def _as_fraction(value: Hashable) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _capped_range(values: Iterable[Fraction], eps: Fraction) -> Fraction:
    """``min(max(S), min(S) + eps)`` for the values ``S``, on integers.

    The halving map of Eq. (3), and each role of Eq. (2).  ``lo`` and
    ``hi`` are the first minimum and the first maximum, as :func:`min`
    and :func:`max` pick them, found by cross-multiplying numerators and
    denominators (denominators are positive) instead of through
    ``Fraction``'s generic comparison.  The result is ``hi`` itself when
    ``hi ≤ lo + eps``, else the sum ``lo + eps``: the same object the
    builtins return.
    """
    rest = iter(values)
    lo = hi = next(rest)
    lo_n, lo_d = hi_n, hi_d = lo.as_integer_ratio()
    for value in rest:
        num, den = value.as_integer_ratio()
        if num * lo_d < lo_n * den:
            lo, lo_n, lo_d = value, num, den
        elif hi_n * den < num * hi_d:
            hi, hi_n, hi_d = value, num, den
    eps_n, eps_d = eps.as_integer_ratio()
    # hi ≤ lo + eps, with both sides over the denominator lo_d·eps_d·hi_d.
    if hi_n * lo_d * eps_d <= (lo_n * eps_d + eps_n * lo_d) * hi_d:
        return hi
    return lo + eps


def _lookup(table: dict[int, Fraction], round_index: int) -> Fraction:
    try:
        return table[round_index]
    except KeyError:
        raise RuntimeModelError(
            f"round {round_index} lies outside rounds 1..{len(table)}"
        ) from None


class HalvingAA(RoundAlgorithm):
    """ε-approximate agreement for ``n ≥ 3`` in ``⌈log₂ 1/ε⌉`` IIS rounds.

    Parameters
    ----------
    epsilon:
        The target agreement parameter (rational in ``(0, 1]``).
    rounds:
        Optional override of the round count (defaults to the tight
        ``⌈log₂ 1/ε⌉``); running fewer rounds demonstrates the lower bound
        binding, running more is harmless.
    """

    name = "halving-AA"

    def __init__(self, epsilon: Rational, rounds: Optional[int] = None):
        self.epsilon = Fraction(epsilon)
        if not 0 < self.epsilon <= 1:
            raise RuntimeModelError("ε must lie in (0, 1]")
        self.rounds = (
            rounds if rounds is not None else ceil_log(2, 1 / self.epsilon)
        )
        self._round_epsilons = _round_parameters(self.epsilon, 2, self.rounds)

    def round_epsilon(self, round_index: int) -> Fraction:
        """The round parameter ``ε_r = 2^{t-r}·ε``, for ``1 ≤ r ≤ t``."""
        return _lookup(self._round_epsilons, round_index)

    def initial_state(self, process: int, input_value: Hashable) -> Fraction:
        return _as_fraction(input_value)

    def step(
        self,
        process: int,
        state: Fraction,
        seen_states: Mapping[int, Fraction],
        box_output: Optional[Hashable],
        round_index: int,
    ) -> Fraction:
        return _capped_range(
            seen_states.values(), self.round_epsilon(round_index)
        )

    def decide(self, process: int, state: Fraction) -> Fraction:
        return state


class TwoProcessThirdsAA(RoundAlgorithm):
    """ε-approximate agreement for exactly 2 processes, ``⌈log₃ 1/ε⌉`` rounds.

    Implements the map of Eq. (2) round by round with the tripling round
    parameter.  The process whose value is the round's minimum (ties broken
    toward the smaller ID) acts as ``p₁``.
    """

    name = "two-process-thirds-AA"

    def __init__(self, epsilon: Rational, rounds: Optional[int] = None):
        self.epsilon = Fraction(epsilon)
        if not 0 < self.epsilon <= 1:
            raise RuntimeModelError("ε must lie in (0, 1]")
        self.rounds = (
            rounds if rounds is not None else ceil_log(3, 1 / self.epsilon)
        )
        self._round_epsilons = _round_parameters(self.epsilon, 3, self.rounds)
        # p₁'s cap 2·ε_r, per round.
        self._doubled_epsilons = {
            round_index: 2 * eps
            for round_index, eps in self._round_epsilons.items()
        }

    def round_epsilon(self, round_index: int) -> Fraction:
        """The round parameter ``ε_r = 3^{t-r}·ε``, for ``1 ≤ r ≤ t``."""
        return _lookup(self._round_epsilons, round_index)

    def initial_state(self, process: int, input_value: Hashable) -> Fraction:
        return _as_fraction(input_value)

    def step(
        self,
        process: int,
        state: Fraction,
        seen_states: Mapping[int, Fraction],
        box_output: Optional[Hashable],
        round_index: int,
    ) -> Fraction:
        if len(seen_states) == 1:
            # Solo view: both roles of Eq. (2) keep their value.
            return state
        if len(seen_states) != 2:
            raise RuntimeModelError(
                "TwoProcessThirdsAA is defined for exactly two processes"
            )
        (id_a, val_a), (id_b, val_b) = sorted(seen_states.items())
        # (val_a, id_a) ≤ (val_b, id_b) with id_a < id_b: val_a ≤ val_b.
        num_a, den_a = val_a.as_integer_ratio()
        num_b, den_b = val_b.as_integer_ratio()
        if num_a * den_b <= num_b * den_a:
            low_id, lo, hi = id_a, val_a, val_b
        else:
            low_id, lo, hi = id_b, val_b, val_a
        if process == low_id:
            # p₁ seeing both: min(hi, lo + 2·ε_r).
            return _capped_range(
                (lo, hi), _lookup(self._doubled_epsilons, round_index)
            )
        # p₂ seeing both: min(hi, lo + ε_r).
        return _capped_range((lo, hi), self.round_epsilon(round_index))

    def decide(self, process: int, state: Fraction) -> Fraction:
        return state


class NonIteratedHalvingAA(HalvingAA):
    """Halving AA hardened for the *non-iterated* model by phase filtering.

    Under op-level asynchrony on reused registers, a phase-``r`` collect can
    return values written at earlier phases; feeding those into Eq. (3)
    breaks the halving invariant (a stale, wide-apart value re-widens the
    interval after the round parameter ``ε_r`` has already shrunk — see the
    E21 experiment, where the plain algorithm violates ε on a sizable
    fraction of random interleavings).

    The repair: a process at phase ``r`` uses only values written at phase
    ``≥ r``.  Such values went through at least ``r − 1`` applications of
    Eq. (3), so they satisfy the same spread invariant as the process's own
    value; the set is never empty because the process's own register
    qualifies.  Empirically this restores ε-agreement on every random
    non-iterated interleaving tried (and synchronized executions degenerate
    to the plain iterated algorithm).

    Only meaningful with
    :class:`~repro.runtime.noniterated.NonIteratedExecutor`, which passes
    ``(phase, state)`` tags to phase-aware algorithms.
    """

    name = "non-iterated-halving-AA"

    #: Ask the non-iterated executor for (phase, state) tags.
    phase_aware = True

    def step(
        self,
        process: int,
        state: Fraction,
        seen_states: Mapping[int, Hashable],
        box_output: Optional[Hashable],
        round_index: int,
    ) -> Fraction:
        fresh = [
            value
            for phase, value in seen_states.values()
            if phase >= round_index
        ]
        if not fresh:
            fresh = [state]
        return _capped_range(fresh, self.round_epsilon(round_index))
