"""E12 — Theorem 4 / Claims 5–6: ε-AA with ID-called binary consensus.

Paper shape: fixing the call function β, the closure restricted to the
majority β-side is liberal (2ε)-AA (Claim 6) — halving the participants
while doubling ε — giving the bound min{⌈log₂ 1/ε⌉, ⌈log₂ n⌉ − 1}.  On
mixed β-sides the collapse fails (the box helps), which the bench also
demonstrates, together with the bound's closed form across (n, ε).
"""

from repro.core import ceil_log
from repro.experiments import reproduce_theorem4
from repro.tables import ExperimentRow, render_table


def test_theorem4_bc_aa(record_table):
    data = reproduce_theorem4()

    assert data["mismatches"] == 0
    assert data["mixed_escapes"]

    rows = [
        ExperimentRow(
            f"majority side S' of β (|S|=5)",
            "|S'| ≥ |S|/2, here {1,3,4}",
            str(data["majority_side"]),
            data["majority_side"] == [1, 3, 4],
        ),
        ExperimentRow(
            "β-closure on S' = liberal 2ε-AA (Claim 6)",
            "yes",
            f"{data['checked'] - data['mismatches']}/{data['checked']} windows",
            data["mismatches"] == 0,
        ),
        ExperimentRow(
            "mixed β-side escapes the 2ε collapse",
            "yes (box helps there)",
            str(data["mixed_escapes"]),
            data["mixed_escapes"],
        ),
    ]
    for n, eps, bound in data["bounds"]:
        expected = min(ceil_log(2, 1 / eps), ceil_log(2, n) - 1)
        assert bound == expected
        rows.append(
            ExperimentRow(
                f"n={n}, ε={eps}",
                f"min(⌈log₂ 1/ε⌉, ⌈log₂ n⌉−1) = {expected}",
                str(bound),
                bound == expected,
            )
        )
    record_table(
        "E12_theorem4",
        render_table(
            "E12 / Theorem 4 — ε-AA with ID-called binary consensus", rows
        ),
    )
