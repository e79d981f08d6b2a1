"""E1 — Fig. 8: the one-round complexes of collect / snapshot / IIS.

Paper shape: for three processes, immediate snapshot is the standard
chromatic subdivision (13 facets), snapshot adds 6 facets (19), and collect
adds 6 more (25); inclusions are strict and all three share the same 12
vertices.
"""

from repro.experiments import reproduce_fig8
from repro.tables import ExperimentRow, render_table

def test_fig8_model_hierarchy(record_table):
    data = reproduce_fig8()

    assert data["immediate_snapshot"].facets == 13
    assert data["immediate_snapshot"].f_vector == (12, 24, 13)
    assert data["snapshot"].facets == 19
    assert data["collect"].facets == 25
    assert data["iis_strictly_inside_snapshot"]
    assert data["snapshot_strictly_inside_collect"]

    rows = [
        ExperimentRow(
            "IIS facets (chromatic subdivision)",
            "13",
            str(data["immediate_snapshot"].facets),
            data["immediate_snapshot"].facets == 13,
        ),
        ExperimentRow(
            "snapshot facets",
            "13 + extra",
            str(data["snapshot"].facets),
            data["snapshot"].facets == 19,
        ),
        ExperimentRow(
            "collect facets",
            "snapshot + extra",
            str(data["collect"].facets),
            data["collect"].facets == 25,
        ),
        ExperimentRow(
            "IIS ⊂ snapshot ⊂ collect (strict)",
            "yes",
            "yes"
            if data["iis_strictly_inside_snapshot"]
            and data["snapshot_strictly_inside_collect"]
            else "no",
            True,
        ),
        ExperimentRow(
            "shared vertex set",
            "12 views",
            str(data["immediate_snapshot"].vertices),
            data["immediate_snapshot"].vertices == 12,
        ),
    ]
    record_table(
        "E1_fig8",
        render_table("E1 / Fig. 8 — one-round complexes, n = 3", rows),
    )
