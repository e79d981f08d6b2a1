#!/usr/bin/env python3
"""Approximate agreement as wait-free clock synchronization.

Approximate agreement is the classic abstraction behind clock
synchronization and sensor fusion: each process holds a local estimate in
[0, 1] and all must converge to within ε of each other, inside the range of
the original estimates, despite asynchrony and crashes.

This example runs the paper's tight algorithms operationally:

* the halving algorithm (Eq. 3) for n ≥ 3 — ⌈log₂ 1/ε⌉ rounds;
* the thirds algorithm (Eq. 2) for n = 2 — ⌈log₃ 1/ε⌉ rounds;

under three adversaries (synchronous, solo-first, randomized with crashes),
prints the per-round convergence trace, and checks the outcome against the
paper's lower bounds: running one round fewer than ⌈log₂ 1/ε⌉ demonstrably
fails.

Run:  python examples/approximate_agreement_clock_sync.py
"""

from fractions import Fraction

from repro import (
    FullSyncAdversary,
    HalvingAA,
    IteratedExecutor,
    RandomAdversary,
    SoloFirstAdversary,
    TwoProcessThirdsAA,
    aa_lower_bound_iis,
)


def spread(values) -> Fraction:
    values = list(values)
    return max(values) - min(values)


def run_and_report(title, algorithm, inputs, adversary, epsilon) -> None:
    executor = IteratedExecutor()
    result = executor.run(algorithm, inputs, adversary)
    print(f"  {title}")
    for round_index, entry in enumerate(result.trace, start=1):
        blocks = " | ".join(
            ",".join(map(str, block)) for block in entry.blocks
        )
        print(f"    round {round_index}: blocks [{blocks}]")
    if result.crashed:
        print(f"    crashed: {result.crashed}")
    decisions = {p: str(v) for p, v in sorted(result.decisions.items())}
    final_spread = spread(result.decisions.values())
    verdict = "OK" if final_spread <= epsilon else "VIOLATION"
    print(f"    decisions: {decisions}")
    print(f"    spread {final_spread} ≤ ε = {epsilon}?  {verdict}")
    assert final_spread <= epsilon
    print()


def main() -> None:
    eps = Fraction(1, 8)
    clocks = {1: Fraction(0), 2: Fraction(3, 8), 3: Fraction(5, 8), 4: Fraction(1)}
    print(f"Clock estimates: { {p: str(v) for p, v in clocks.items()} }")
    print(f"Target precision ε = {eps}; paper lower bound "
          f"⌈log₂ 1/ε⌉ = {aa_lower_bound_iis(4, eps)} rounds.\n")

    algorithm = HalvingAA(eps)
    print(f"Halving algorithm (Eq. 3), {algorithm.rounds} rounds:")
    run_and_report("synchronous run", algorithm, clocks, FullSyncAdversary(), eps)
    run_and_report(
        "process 3 always runs solo first",
        algorithm,
        clocks,
        SoloFirstAdversary(3),
        eps,
    )
    run_and_report(
        "randomized schedule with crashes (seed 7)",
        algorithm,
        clocks,
        RandomAdversary(seed=7, crash_probability=0.2),
        eps,
    )

    # ------------------------------------------------------------------
    # The lower bound binds: one round fewer fails on some schedule.
    # ------------------------------------------------------------------
    hurried = HalvingAA(eps, rounds=algorithm.rounds - 1)
    executor = IteratedExecutor()
    worst = None
    for seed in range(200):
        result = executor.run(
            hurried, clocks, RandomAdversary(seed=seed)
        )
        s = spread(result.decisions.values())
        if worst is None or s > worst:
            worst = s
    print(f"With only {hurried.rounds} rounds the adversary forces spread "
          f"{worst} > ε = {eps}: the ⌈log₂ 1/ε⌉ bound binds.")
    assert worst > eps

    # ------------------------------------------------------------------
    # Two processes are faster: base 3 instead of base 2 (Corollary 3).
    # ------------------------------------------------------------------
    eps2 = Fraction(1, 9)
    two = TwoProcessThirdsAA(eps2)
    print(f"\nTwo processes, ε = {eps2}: thirds algorithm needs "
          f"{two.rounds} rounds (halving would need "
          f"{HalvingAA(eps2).rounds}).")
    run_and_report(
        "two-process run",
        two,
        {1: Fraction(0), 2: Fraction(1)},
        RandomAdversary(seed=1),
        eps2,
    )


if __name__ == "__main__":
    main()
