"""E5 — Fig. 5: the 1-round IIS+test&set complex for three processes.

Paper shape: each of the 12 chromatic-subdivision vertices is duplicated by
the test&set outcome — except the three solo vertices, which always carry
outcome 1 — giving 7 vertices per color (21 in total); each execution has
exactly one winner, drawn from its first block.
"""

from repro.experiments import reproduce_fig5
from repro.tables import ExperimentRow, render_table


def test_fig5_tas_complex(record_table):
    data = reproduce_fig5()

    assert data["per_color"] == {1: 7, 2: 7, 3: 7}
    assert set(data["solo_outcomes"].values()) == {1}
    assert all(data["non_solo_views_duplicated"].values())
    assert data["full_participation_facets"] == 18

    rows = [
        ExperimentRow(
            "vertices per color",
            "7 (4 views, solo not duplicated)",
            str(sorted(set(data["per_color"].values()))),
            data["per_color"] == {1: 7, 2: 7, 3: 7},
        ),
        ExperimentRow(
            "total vertices",
            "21",
            str(len(data["complex"].vertices)),
            len(data["complex"].vertices) == 21,
        ),
        ExperimentRow(
            "solo views win test&set",
            "always",
            str(set(data["solo_outcomes"].values())),
            set(data["solo_outcomes"].values()) == {1},
        ),
        ExperimentRow(
            "non-solo views duplicated 0/1",
            "yes",
            str(all(data["non_solo_views_duplicated"].values())),
            all(data["non_solo_views_duplicated"].values()),
        ),
        ExperimentRow(
            "full-participation facets",
            "Σ |first block| over 13 schedules = 18",
            str(data["full_participation_facets"]),
            data["full_participation_facets"] == 18,
        ),
    ]
    record_table(
        "E5_fig5",
        render_table("E5 / Fig. 5 — IIS+test&set one-round complex, n = 3", rows),
    )
