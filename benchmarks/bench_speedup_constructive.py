"""E13 — Theorems 1–2 run constructively: f ↦ f' on real algorithms.

Paper shape: from any t-round solution f, the map f'(i, V) = f(i, solo(V))
solves the closure in t−1 rounds — in the register model (Theorem 1) and
with black boxes (Theorem 2).
"""

from repro.experiments import reproduce_speedup
from repro.tables import ExperimentRow, render_table

def test_speedup_constructive(record_table):
    data = reproduce_speedup()

    t1, t2 = data["theorem1"], data["theorem2"]
    assert t1.holds and t2.holds

    rows = [
        ExperimentRow(
            "Theorem 1: 2-round thirds AA (ε=1/9)",
            "f valid; f' solves CL in 1 round",
            f"f valid={t1.original_valid}, f' valid={t1.sped_up_valid}",
            t1.holds,
        ),
        ExperimentRow(
            "violations found",
            "0",
            str(len(t1.violations)),
            not t1.violations,
        ),
        ExperimentRow(
            "Theorem 2: 1-round t&s consensus",
            "f valid; f' solves CL in 0 rounds",
            f"f valid={t2.original_valid}, f' valid={t2.sped_up_valid}",
            t2.holds,
        ),
    ]
    record_table(
        "E13_speedup",
        render_table(
            "E13 / Theorems 1–2 — the speedup construction, verified", rows
        ),
    )
