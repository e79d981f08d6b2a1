"""Operational runtime: an executable asynchronous shared-memory simulator.

The combinatorial models of :mod:`repro.models` *define* which executions
exist; this subpackage *runs* them:

* :mod:`repro.runtime.registers` — SWMR register arrays ``M_r``;
* :mod:`repro.runtime.lowlevel` — an operation-level executor that
  interleaves individual atomic reads/writes/snapshots (used to validate
  that real interleavings produce exactly the view maps of the matrix
  representation, Appendix A.3.4);
* :mod:`repro.runtime.algorithm` — the generic round-based full-information
  algorithm shape of Algorithms 1–2, plus extraction of the combinatorial
  decision map ``f`` from an algorithm;
* :mod:`repro.runtime.iterated` — a round-level executor driving algorithms
  under one adversary per execution (crashes, schedules, black-box
  choices, register arrays), cross-checking everything it is handed and
  recording each round as the
  :class:`~repro.runtime.adversary.TraceRound` that replays it;
* :mod:`repro.runtime.adversary` — the adversary interface and its
  schedulers: random, solo-first, synchronous, exhaustive, and the one
  :class:`~repro.runtime.adversary.ReplayAdversary` that re-executes a
  sequence of :class:`~repro.runtime.adversary.TraceRound` decisions
  (an execution's own trace, fixed schedules, matrices, fault traces);
* :mod:`repro.runtime.noniterated` — reused registers under op-level
  asynchrony (the paper's open question).
"""

from repro.runtime.registers import SWMRRegister, RegisterArray
from repro.runtime.algorithm import (
    RoundAlgorithm,
    extract_decision_map,
)
from repro.runtime.adversary import (
    Adversary,
    RandomAdversary,
    FullSyncAdversary,
    SoloFirstAdversary,
    RandomMatrixAdversary,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
)
from repro.runtime.iterated import IteratedExecutor, ExecutionResult
from repro.runtime.noniterated import NonIteratedExecutor, NonIteratedResult
from repro.runtime.lowlevel import (
    random_collect_round,
    random_snapshot_round,
    random_immediate_snapshot_round,
)

__all__ = [
    "SWMRRegister",
    "RegisterArray",
    "RoundAlgorithm",
    "extract_decision_map",
    "Adversary",
    "RandomAdversary",
    "FullSyncAdversary",
    "SoloFirstAdversary",
    "RandomMatrixAdversary",
    "ReplayAdversary",
    "TraceRound",
    "all_schedule_sequences",
    "IteratedExecutor",
    "ExecutionResult",
    "NonIteratedExecutor",
    "NonIteratedResult",
    "random_collect_round",
    "random_snapshot_round",
    "random_immediate_snapshot_round",
]
