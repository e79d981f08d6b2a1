"""E6 — Corollary 2 + Fig. 6: consensus with test&set impossible for n > 2.

Paper shape: the relaxed consensus task (agreement only when ≥ 3
participate) is a fixed point of IIS+test&set; it is not 0-round solvable;
hence consensus among n ≥ 3 processes is unsolvable with test&set, even
though it is 1-round solvable for n = 2.  The ρ-simplices of Fig. 6 are the
execution pair that forces agreement inside the closure argument.
"""

from repro.experiments import reproduce_corollary2
from repro.tables import ExperimentRow, render_table

def test_corollary2_consensus_with_tas(record_table):
    data = reproduce_corollary2()

    assert data["fixed_point"]
    assert data["unsolvable"]
    assert data["rho_ijk_exists"] and data["rho_jik_exists"]
    assert data["two_proc_solvable"]
    assert not data["three_proc_one_round"]

    rows = [
        ExperimentRow(
            "relaxed consensus fixed point of IIS+t&s",
            "yes",
            str(data["fixed_point"]),
            data["fixed_point"],
        ),
        ExperimentRow(
            "verdict for n = 3 (Lemma 1)",
            "unsolvable",
            "unsolvable" if data["unsolvable"] else "?",
            data["unsolvable"],
        ),
        ExperimentRow(
            "Fig. 6 simplices ρ_{i,j,k}, ρ_{j,i,k} exist",
            "yes",
            str(data["rho_ijk_exists"] and data["rho_jik_exists"]),
            data["rho_ijk_exists"] and data["rho_jik_exists"],
        ),
        ExperimentRow(
            "n = 2 contrast: 1-round solvable",
            "yes (Fig. 4)",
            str(data["two_proc_solvable"]),
            data["two_proc_solvable"],
        ),
        ExperimentRow(
            "n = 3 at t = 1 (brute force)",
            "unsolvable",
            "unsolvable" if not data["three_proc_one_round"] else "?",
            not data["three_proc_one_round"],
        ),
    ]
    record_table(
        "E6_corollary2",
        render_table(
            "E6 / Corollary 2 — consensus with test&set, n > 2", rows
        ),
    )
