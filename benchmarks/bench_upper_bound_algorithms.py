"""E15 — the four upper-bound algorithm families of the paper.

Paper shape:

    thirds AA        n = 2        ⌈log₃ 1/ε⌉ rounds        IIS
    halving AA       n ≥ 3        ⌈log₂ 1/ε⌉ rounds        IIS
    t&s consensus    n = 2        1 round                  IIS + test&set
    bitwise AA       any n        ⌈log₂ 1/ε⌉ rounds        IIS + consensus
    ID consensus     any n        ⌈log₂ n⌉ rounds          IIS + consensus

Measured operationally: run each under adversarial schedules (exhaustive
where feasible, randomized with crashes otherwise), confirm correctness and
the exact round count.
"""

from repro.experiments import reproduce_upper_bounds
from repro.tables import ExperimentRow, render_table

def test_upper_bound_algorithms(record_table):
    cases = reproduce_upper_bounds()

    rows = []
    for label, expected_rounds, rounds, ok in cases:
        assert rounds == expected_rounds, label
        assert ok, label
        rows.append(
            ExperimentRow(
                label,
                f"{expected_rounds} rounds, always correct",
                f"{rounds} rounds, correct={ok}",
                rounds == expected_rounds and ok,
            )
        )
    record_table(
        "E15_upper_bounds",
        render_table(
            "E15 — upper-bound algorithms under adversarial schedules", rows
        ),
    )
