"""E17 — extension (Conclusion): the closure engine on k-set agreement.

The paper closes by asking whether the speedup technique applies to other
tasks; this bench runs the machinery on 2-set agreement among three
processes: the closure strictly extends Δ (so k-set agreement is *not* a
fixed point — the technique alone does not reprove its impossibility,
matching the paper's observation that connectivity-style arguments are
needed there), while 1-round unsolvability is still certified by search.
"""

from repro.experiments import reproduce_kset
from repro.tables import ExperimentRow, render_table

def test_kset_extension(record_table):
    data = reproduce_kset()

    assert not data["zero_round"]
    assert not data["one_round"]
    assert data["closure_grows"]

    rows = [
        ExperimentRow(
            "2-set agreement, n=3, 0 rounds",
            "unsolvable",
            "unsolvable" if not data["zero_round"] else "solvable",
            not data["zero_round"],
        ),
        ExperimentRow(
            "2-set agreement, n=3, 1 round",
            "unsolvable (BG/SZ/HS)",
            "unsolvable" if not data["one_round"] else "solvable",
            not data["one_round"],
        ),
        ExperimentRow(
            "closure strictly extends Δ (not a fixed point)",
            "expected: technique alone insufficient",
            f"{data['delta_facets']} → {data['closure_facets']} facets",
            data["closure_grows"],
        ),
    ]
    record_table(
        "E17_kset",
        render_table(
            "E17 / Conclusion — closure engine on 2-set agreement", rows
        ),
    )
