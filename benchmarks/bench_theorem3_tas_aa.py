"""E10 — Theorem 3 / Claim 4: test&set does not accelerate ε-AA for n ≥ 3.

Paper shape: the closure of liberal ε-AA w.r.t. IIS+test&set is *still*
liberal (2ε)-AA — the object buys nothing — so the ⌈log₂ 1/ε⌉ bound
stands; for n = 2 the object collapses the complexity to a single round.
"""

from fractions import Fraction

from repro.experiments import reproduce_theorem3
from repro.tables import ExperimentRow, render_table


def F(num, den=1):
    return Fraction(num, den)

def test_theorem3_tas_useless_for_aa(record_table):
    data = reproduce_theorem3()

    assert data["mismatches"] == 0
    rows = [
        ExperimentRow(
            "CL_{IIS+t&s}(liberal ε-AA) = liberal 2ε-AA",
            "yes (Claim 4)",
            f"{data['checked'] - data['mismatches']}/{data['checked']} windows",
            data["mismatches"] == 0,
        )
    ]
    for n, eps, plain, with_tas in data["bounds"]:
        assert plain == with_tas
        rows.append(
            ExperimentRow(
                f"n={n}, ε={eps}: rounds with vs without t&s",
                "equal",
                f"{with_tas} = {plain}",
                plain == with_tas,
            )
        )
    plain2, tas2, solvable2 = data["n2"]
    assert tas2 == 1 and plain2 > 1 and solvable2
    rows.append(
        ExperimentRow(
            "n=2 contrast, ε=1/16",
            "t&s collapses to 1 round",
            f"{tas2} (plain IIS needs {plain2})",
            tas2 == 1 and plain2 > 1,
        )
    )
    record_table(
        "E10_theorem3",
        render_table(
            "E10 / Theorem 3 — test&set does not speed up ε-AA (n ≥ 3)",
            rows,
        ),
    )
