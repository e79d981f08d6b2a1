#!/usr/bin/env python3
"""Lower-bound explorer: apply the closure machinery to your own task.

The speedup theorem is generic: define any finite task (I, O, Δ), pick a
model, and the library will compute closures, detect fixed points, and
derive round lower bounds by iteration.  This example does it for three
tasks the paper does not fully work out:

* **leader election** (every process outputs the ID of one common
  participant) — a consensus-like fixed point, hence unsolvable;
* **2-set agreement** among three processes — not a fixed point (the
  closure strictly grows), matching the paper's remark that its
  impossibility needs connectivity-type arguments beyond the closure;
* a custom "within-one-slot agreement" task on a value ladder, whose
  closure iteration yields a genuine round lower bound.

Run:  python examples/lower_bound_explorer.py
"""

from repro import (
    ClosureComputer,
    ImmediateSnapshotModel,
    Simplex,
    SimplicialComplex,
    Task,
    impossibility_from_fixed_point,
    is_solvable,
    iterated_closure_lower_bound,
    set_agreement_task,
)
from repro.tasks.inputs import full_input_complex


def leader_election_task(ids):
    """Every process outputs the same participant ID (a participant's)."""
    id_list = sorted(ids)
    input_complex = full_input_complex(id_list, ["token"])
    output_complex = SimplicialComplex(
        Simplex((i, leader) for i in id_list) for leader in id_list
    )

    def delta(sigma):
        participants = sorted(sigma.ids)
        return SimplicialComplex(
            Simplex((i, leader) for i in participants)
            for leader in participants
        )

    return Task(f"leader-election(n={len(id_list)})", input_complex,
                output_complex, delta)


def ladder_agreement_task(ids, slots):
    """Processes start on ladder slots and must end within one slot.

    A discrete cousin of approximate agreement: inputs and outputs are
    integers 0..slots, outputs within the input range, pairwise ≤ 1 apart.
    """
    id_list = sorted(ids)
    values = list(range(slots + 1))
    input_complex = full_input_complex(id_list, values)
    from itertools import product

    output_complex = SimplicialComplex(
        Simplex(zip(id_list, combo))
        for combo in product(values, repeat=len(id_list))
        if max(combo) - min(combo) <= 1
    )

    def delta(sigma):
        lo = min(v.value for v in sigma.vertices)
        hi = max(v.value for v in sigma.vertices)
        participants = sorted(sigma.ids)
        window = [v for v in values if lo <= v <= hi]
        return SimplicialComplex(
            Simplex(zip(participants, combo))
            for combo in product(window, repeat=len(participants))
            if max(combo) - min(combo) <= 1
        )

    return Task(f"ladder(n={len(id_list)}, slots={slots})", input_complex,
                output_complex, delta)


def main() -> None:
    iis = ImmediateSnapshotModel()

    # ------------------------------------------------------------------
    # Leader election: a fixed point ⟹ unsolvable (like consensus).
    # ------------------------------------------------------------------
    leader = leader_election_task([1, 2])
    report = impossibility_from_fixed_point(leader, iis)
    print("Leader election (n = 2):")
    print(f"  {report.summary()}\n")

    # ------------------------------------------------------------------
    # 2-set agreement: the closure grows, so Lemma 1 does not apply.
    # ------------------------------------------------------------------
    kset = set_agreement_task([1, 2, 3], ["a", "b", "c"], 2)
    computer = ClosureComputer(kset, iis)
    rainbow = Simplex([(1, "a"), (2, "b"), (3, "c")])
    grew = (
        computer.delta_prime(rainbow).simplices
        > kset.delta(rainbow).simplices
    )
    one_round = is_solvable(
        kset, iis, 1,
        input_simplices=[rainbow] + list(rainbow.proper_faces()),
    )
    print("2-set agreement (n = 3):")
    print(f"  closure strictly grows: {grew} — not a fixed point, the")
    print("  closure technique alone cannot reprove its impossibility")
    print(f"  (1-round brute force still says unsolvable: {not one_round}).\n")

    # ------------------------------------------------------------------
    # Ladder agreement: a genuine iterative lower bound.
    # ------------------------------------------------------------------
    ladder = ladder_agreement_task([1, 2], slots=4)
    bound = iterated_closure_lower_bound(ladder, iis, max_rounds=4)
    print("Ladder agreement (n = 2, slots 0..4, outputs within one slot):")
    print(f"  closure-iteration lower bound: {bound} round(s)")
    print("  (each closure triples the allowed slot distance, exactly the")
    print("  ε-AA behavior on the grid m = 4, ε = 1/4 — compare")
    print("  ⌈log₃ 4⌉ = 2.)")
    assert bound == 2


if __name__ == "__main__":
    main()
