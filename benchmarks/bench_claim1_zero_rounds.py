"""E14 — Claim 1: zero-round unsolvability of approximate agreement.

Paper shape: for ε < 1 no 0-round algorithm solves ε-AA (solo outputs are
forced to the inputs), and the same holds for the liberal version with
n ≥ 3 — while for exactly two processes the liberal version IS 0-round
solvable (the technical wrinkle that costs Theorem 4 its additive −1).
"""

from repro.experiments import reproduce_claim1
from repro.tables import ExperimentRow, render_table

def test_claim1_zero_round_unsolvability(record_table):
    data = reproduce_claim1()

    assert not data["strict_2"]
    assert not data["strict_3"]
    assert not data["liberal_3"]
    assert data["liberal_2"]
    assert data["eps_1"]

    rows = [
        ExperimentRow(
            "ε-AA, n=2, ε=1/2, 0 rounds",
            "unsolvable",
            "unsolvable" if not data["strict_2"] else "solvable",
            not data["strict_2"],
        ),
        ExperimentRow(
            "ε-AA, n=3, 0 rounds",
            "unsolvable",
            "unsolvable" if not data["strict_3"] else "solvable",
            not data["strict_3"],
        ),
        ExperimentRow(
            "liberal ε-AA, n=3, 0 rounds",
            "unsolvable",
            "unsolvable" if not data["liberal_3"] else "solvable",
            not data["liberal_3"],
        ),
        ExperimentRow(
            "liberal ε-AA, n=2, 0 rounds",
            "solvable (the −1 of Theorem 4)",
            "solvable" if data["liberal_2"] else "unsolvable",
            data["liberal_2"],
        ),
        ExperimentRow(
            "ε = 1 boundary",
            "solvable",
            "solvable" if data["eps_1"] else "unsolvable",
            data["eps_1"],
        ),
    ]
    record_table(
        "E14_claim1",
        render_table("E14 / Claim 1 — zero-round (un)solvability", rows),
    )
