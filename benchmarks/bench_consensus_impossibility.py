"""E3 — Corollary 1: wait-free consensus impossibility via the closure.

Paper shape: CL_IIS(consensus) = consensus (fixed point), consensus is not
0-round solvable, hence unsolvable in any number of rounds (Lemma 1).
Reproduced mechanically for n = 2 and n = 3.
"""

from repro.experiments import reproduce_corollary1
from repro.tables import ExperimentRow, render_table

def test_corollary1_consensus_impossibility(record_table):
    outcomes = reproduce_corollary1()

    rows = []
    for n, data in outcomes.items():
        assert data["fixed_point"]
        assert not data["zero_round"]
        assert data["unsolvable"]
        assert not data["brute_force_1_round"]
        rows.append(
            ExperimentRow(
                f"n={n}: CL(consensus) = consensus",
                "yes",
                str(data["fixed_point"]),
                data["fixed_point"],
            )
        )
        rows.append(
            ExperimentRow(
                f"n={n}: 0-round solvable",
                "no",
                str(data["zero_round"]),
                not data["zero_round"],
            )
        )
        rows.append(
            ExperimentRow(
                f"n={n}: verdict (Lemma 1)",
                "unsolvable",
                "unsolvable" if data["unsolvable"] else "solvable?",
                data["unsolvable"],
            )
        )
    record_table(
        "E3_corollary1",
        render_table(
            "E3 / Corollary 1 — wait-free consensus impossibility", rows
        ),
    )
