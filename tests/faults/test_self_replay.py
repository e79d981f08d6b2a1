"""An execution replays itself: ``ReplayAdversary(result.trace)``.

The executor records each round as the
:class:`~repro.runtime.adversary.TraceRound` of the adversary's
decisions, so replaying an execution's own trace must give back the same
decisions, crashes, box outputs and trace — in every cell E23 runs, under
the campaign's adversary and under one that also crashes processes
before a round.
"""

from fractions import Fraction

import pytest

from repro.experiments.robustness import _BROKEN_CELLS, _CLEAN_CELLS
from repro.faults.campaign import (
    CampaignConfig,
    _ChaosAdversary,
    _make_adversary,
    get_cell,
)
from repro.faults.injectors import FaultTrace
from repro.runtime import (
    IteratedExecutor,
    RandomAdversary,
    RandomMatrixAdversary,
    ReplayAdversary,
)

EPSILON = Fraction(1, 8)
SEEDS = range(25)

#: E23's six clean cells and its two broken ones, as (cell, model, n, t).
CELLS = _CLEAN_CELLS + tuple((cell, "iis", 3, 0) for cell in _BROKEN_CELLS)


class _PreRoundCrashes(RandomMatrixAdversary):
    """Matrix schedules plus ``RandomAdversary``'s pre-round crashes."""

    def __init__(self, kind: str, seed: int) -> None:
        super().__init__(kind, seed)
        self._crasher = RandomAdversary(seed, crash_probability=0.3)

    def crashes(self, round_index, active):
        return self._crasher.crashes(round_index, active)


def _crashing_adversary(model: str, t: int, seed: int):
    """The campaign's chaos adversary around a pre-round crasher."""
    if model == "iis":
        inner = RandomAdversary(seed, crash_probability=0.3)
    else:
        inner = _PreRoundCrashes(model, seed)
    return _ChaosAdversary(inner, seed, t)


def _executions(cell, model, n, t):
    """Seeded executions of one cell, under both adversary families."""
    spec = get_cell(cell)
    executor = IteratedExecutor(
        box=spec.make_box() if spec.make_box is not None else None
    )
    config = CampaignConfig(cell=cell, model=model, n=n, t=t)
    for seed in SEEDS:
        inputs = spec.sample_inputs(n, EPSILON, seed)
        for adversary in (
            _make_adversary(config, seed),
            _crashing_adversary(model, t, seed),
        ):
            algorithm = spec.build(n, EPSILON)
            yield executor, algorithm, inputs, executor.run(
                algorithm, inputs, adversary
            )


@pytest.mark.parametrize(
    "cell, model, n, t",
    CELLS,
    ids=[f"{cell}-{model}-n{n}-t{t}" for cell, model, n, t in CELLS],
)
def test_replaying_the_trace_reproduces_the_execution(cell, model, n, t):
    seen = {"crashes": 0, "mid_crashes": 0, "box": 0, "matrix": 0}
    for executor, algorithm, inputs, original in _executions(
        cell, model, n, t
    ):
        replayed = executor.run(
            algorithm, inputs, ReplayAdversary(original.trace)
        )
        assert replayed.decisions == original.decisions
        assert replayed.crashed == original.crashed
        assert replayed.box_outputs == original.box_outputs
        assert replayed.trace == original.trace
        # Every process either crashed (as the trace says) or decided.
        assert set(original.crashed).isdisjoint(original.decisions)
        assert set(original.crashed) | set(original.decisions) == set(inputs)
        # The trace is what a fault trace stores and reads back.
        stored = FaultTrace(inputs=(), rounds=tuple(original.trace))
        assert FaultTrace.from_json(stored.to_json()) == stored
        for entry, outputs in zip(original.trace, original.box_outputs):
            seen["crashes"] += len(entry.crashes)
            seen["mid_crashes"] += len(entry.mid_crashes)
            seen["box"] += bool(outputs)
            seen["matrix"] += entry.views is not None
    # Every kind of decision the cell's model allows was replayed.
    assert seen["crashes"] > 0
    assert (seen["mid_crashes"] > 0) == (t > 0)
    assert (seen["box"] > 0) == (get_cell(cell).make_box is not None)
    assert (seen["matrix"] > 0) == (model != "iis")

