"""E11 — Fig. 7: the 1-round IIS+binary-consensus complex.

Paper shape: with the black process calling the object with 0 and the other
two with 1, the complex is two decorated copies of the chromatic
subdivision; the black process's solo vertex disappears from the 1-copy,
and executions among the 1-callers only exist in the 1-copy.
"""

from repro.experiments import reproduce_fig7
from repro.tables import ExperimentRow, render_table


def test_fig7_bc_complex(record_table):
    bundle = reproduce_fig7()
    data = bundle["mixed"]

    assert all(data["opposite_solo_removed"].values())
    assert data["facets_per_agreed_bit"] == {0: 6, 1: 10}

    uniform = bundle["uniform"]
    assert uniform["facets_per_agreed_bit"] == {0: 0, 1: 13}

    rows = [
        ExperimentRow(
            "solo vertices with opposite bit removed",
            "yes (validity)",
            str(all(data["opposite_solo_removed"].values())),
            all(data["opposite_solo_removed"].values()),
        ),
        ExperimentRow(
            "facets deciding 0 (black in first block)",
            "6 of 13 schedules",
            str(data["facets_per_agreed_bit"][0]),
            data["facets_per_agreed_bit"][0] == 6,
        ),
        ExperimentRow(
            "facets deciding 1",
            "10 of 13 schedules",
            str(data["facets_per_agreed_bit"][1]),
            data["facets_per_agreed_bit"][1] == 10,
        ),
        ExperimentRow(
            "uniform calls collapse to one copy",
            "13 facets, all agree",
            str(uniform["facets_per_agreed_bit"]),
            uniform["facets_per_agreed_bit"] == {0: 0, 1: 13},
        ),
    ]
    record_table(
        "E11_fig7",
        render_table(
            "E11 / Fig. 7 — IIS+binary-consensus one-round complex", rows
        ),
    )
