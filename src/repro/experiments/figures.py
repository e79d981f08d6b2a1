"""Experiments E1, E4, E5, E11 — the paper's structural figures."""

from __future__ import annotations


from repro.algorithms import TwoProcessConsensusTAS
from repro.analysis import (
    figure4_complex_and_map,
    figure5_complex,
    figure7_complex,
    figure8_census,
)
from repro.objects import TestAndSetBox
from repro.runtime import (
    IteratedExecutor,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
)

__all__ = [
    "reproduce_fig4",
    "reproduce_fig5",
    "reproduce_fig7",
    "reproduce_fig8",
]


def reproduce_fig8() -> dict[str, object]:
    """E1 — Fig. 8: census and strict hierarchy of the three models."""
    return figure8_census()


def reproduce_fig4() -> dict[str, object]:
    """E4 — Fig. 4: 2-process consensus with test&set, combinatorially
    (a simplicial decision map exists) and operationally (the algorithm is
    correct on every input × schedule × box behavior)."""
    protocol, decision = figure4_complex_and_map()
    executor = IteratedExecutor(box=TestAndSetBox())
    runs = correct = 0
    for inputs in ({1: 0, 2: 1}, {1: 1, 2: 0}, {1: 0, 2: 0}, {1: 1, 2: 1}):
        for (blocks,) in all_schedule_sequences([1, 2], 1):
            for option in range(2):
                entry = TraceRound(
                    blocks=tuple(map(tuple, blocks)), box_choice=option
                )
                result = executor.run(
                    TwoProcessConsensusTAS(), inputs, ReplayAdversary([entry])
                )
                runs += 1
                values = set(result.decisions.values())
                if len(values) == 1 and values <= set(inputs.values()):
                    correct += 1
    return {
        "map_found": decision is not None,
        "protocol_vertices": len(protocol.vertices),
        "runs": runs,
        "correct": correct,
    }


def reproduce_fig5() -> dict[str, object]:
    """E5 — Fig. 5: the IIS+test&set one-round complex for three processes."""
    return figure5_complex()


def reproduce_fig7() -> dict[str, object]:
    """E11 — Fig. 7: the IIS+binary-consensus one-round complex, with the
    figure's call bits (black calls 0, the others 1) and the uniform-call
    contrast."""
    mixed = figure7_complex()
    uniform = figure7_complex(call_bits={1: 1, 2: 1, 3: 1})
    return {"mixed": mixed, "uniform": uniform}
