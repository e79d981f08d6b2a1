"""Experiments E15, E16 — the operational layer vs the combinatorial one."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Hashable, Iterable

from repro.algorithms import (
    BitwiseAA,
    ConsensusViaBinaryConsensus,
    HalvingAA,
    TwoProcessConsensusTAS,
    TwoProcessThirdsAA,
)
from repro.core import ceil_log
from repro.faults.oracles import (
    ApproximateAgreementOracle,
    ConsensusOracle,
    PropertyOracle,
)
from repro.models.schedules import distinct_schedules
from repro.objects import BinaryConsensusBox, TestAndSetBox
from repro.runtime import (
    IteratedExecutor,
    RandomAdversary,
    RoundAlgorithm,
    random_collect_round,
    random_immediate_snapshot_round,
    random_snapshot_round,
)

__all__ = ["reproduce_upper_bounds", "reproduce_runtime_vs_matrices"]

F = Fraction


def _every_run_ok(
    oracle: PropertyOracle,
    executor: IteratedExecutor,
    algorithm: RoundAlgorithm,
    inputs: dict[int, Hashable],
    seeds: list[int],
    crash_probability: float,
) -> bool:
    """Whether ``oracle`` accepts the run under every seeded adversary."""
    return all(
        oracle.check(
            inputs,
            executor.run(
                algorithm, inputs, RandomAdversary(seed, crash_probability)
            ),
        )
        is None
        for seed in seeds
    )


def reproduce_upper_bounds(
    seeds: Iterable[int] = range(60),
) -> list[tuple[str, int, int, bool]]:
    """E15 — all five upper-bound algorithm families under adversarial
    randomized schedules with crashes; returns (label, expected rounds,
    actual rounds, all-correct)."""
    seeds = list(seeds)
    eps = F(1, 8)
    consensus = ConsensusOracle()
    cases: list[tuple[str, int, int, bool]] = []

    algorithm: RoundAlgorithm = TwoProcessThirdsAA(F(1, 9))
    ok = _every_run_ok(
        ApproximateAgreementOracle(F(1, 9)),
        IteratedExecutor(),
        algorithm,
        {1: F(0), 2: F(1)},
        seeds,
        0.1,
    )
    cases.append(("thirds AA n=2 ε=1/9", 2, algorithm.rounds, ok))

    algorithm = HalvingAA(eps)
    ok = _every_run_ok(
        ApproximateAgreementOracle(eps),
        IteratedExecutor(),
        algorithm,
        {1: F(0), 2: F(3, 8), 3: F(5, 8), 4: F(1)},
        seeds,
        0.15,
    )
    cases.append(("halving AA n=4 ε=1/8", 3, algorithm.rounds, ok))

    algorithm = TwoProcessConsensusTAS()
    ok = _every_run_ok(
        consensus,
        IteratedExecutor(box=TestAndSetBox()),
        algorithm,
        {1: "a", 2: "b"},
        seeds,
        0.1,
    )
    cases.append(("t&s consensus n=2", 1, algorithm.rounds, ok))

    algorithm = BitwiseAA(eps)
    ok = _every_run_ok(
        ApproximateAgreementOracle(eps),
        IteratedExecutor(box=BinaryConsensusBox()),
        algorithm,
        {1: F(0), 2: F(5, 16), 3: F(1)},
        seeds,
        0.15,
    )
    cases.append(("bitwise AA n=3 ε=1/8", 3, algorithm.rounds, ok))

    algorithm = ConsensusViaBinaryConsensus(5)
    ok = _every_run_ok(
        consensus,
        IteratedExecutor(box=BinaryConsensusBox()),
        algorithm,
        {i: f"v{i}" for i in range(1, 6)},
        seeds,
        0.15,
    )
    cases.append(("consensus via bc n=5", ceil_log(2, 5), algorithm.rounds, ok))
    return cases


def reproduce_runtime_vs_matrices(
    samples: int = 1000,
) -> dict[str, dict[str, object]]:
    """E16 — operation-level executions land inside (and cover) the matrix
    sets of Appendix A.3.4, per model."""
    ids = [1, 2, 3]
    values = {1: "a", 2: "b", 3: "c"}

    # A view map {process: seen writers} compared as its set of items.
    matrix_sets = {
        kind: {
            frozenset(s.view_map().items())
            for s in distinct_schedules(kind, ids)
        }
        for kind in ("collect", "snapshot", "immediate")
    }
    runners = {
        "collect": random_collect_round,
        "snapshot": random_snapshot_round,
        "immediate": random_immediate_snapshot_round,
    }
    report: dict[str, dict[str, object]] = {}
    rng = random.Random(2022)
    for name, runner in runners.items():
        reached = set()
        sound = True
        for _ in range(samples):
            views = frozenset(runner(ids, values, rng).items())
            reached.add(views)
            if views not in matrix_sets[name]:
                sound = False
        report[name] = {
            "sound": sound,
            "reached": len(reached),
            "total": len(matrix_sets[name]),
        }
    return report
