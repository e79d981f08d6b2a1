"""E9 — Corollary 3: the round complexity of ε-AA in wait-free IIS.

Paper shape (the central "table" of Section 5.1):

    n = 2:  ⌈log₃ 1/ε⌉ rounds (closure triples ε),
    n ≥ 3:  ⌈log₂ 1/ε⌉ rounds (closure doubles ε),

both tight.  Measured three ways: the closed form backed by the verified
closure identities, the generic closure-iteration engine on a small
instance, and the algorithms' round counts (tightness).
"""

from repro.experiments import reproduce_corollary3
from repro.tables import ExperimentRow, render_table

def test_corollary3_lower_bounds(record_table):
    data = reproduce_corollary3()

    rows = []
    for n, eps, k, lower, upper in data["table"]:
        assert lower == upper == k
        base = 3 if n == 2 else 2
        rows.append(
            ExperimentRow(
                f"n={n}, ε={eps}",
                f"⌈log_{base} 1/ε⌉ = {k}",
                f"lower {lower}, algorithm {upper} rounds",
                lower == upper == k,
            )
        )
    assert data["generic_quarter"] == 2
    rows.append(
        ExperimentRow(
            "generic closure iteration (n=2, ε=1/4)",
            "2",
            str(data["generic_quarter"]),
            data["generic_quarter"] == 2,
        )
    )
    rows.append(
        ExperimentRow(
            "bound binds (1 round fails at ε=1/4)",
            "yes",
            str(data["binding"]),
            data["binding"],
        )
    )
    record_table(
        "E9_corollary3",
        render_table("E9 / Corollary 3 — ε-AA round complexity in IIS", rows),
    )
