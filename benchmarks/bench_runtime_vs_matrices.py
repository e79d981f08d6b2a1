"""E16 — Appendix A: operation-level executions ⟷ matrix schedules.

Paper shape: the matrices of Appendix A.3.4 characterize exactly the view
maps real interleavings can produce, with the strict hierarchy
IS ⊆ snapshot ⊆ collect.  Measured: 1000 random op-level rounds per model
land inside (and, for n = 3, cover much of) the corresponding matrix sets.
"""

from repro.experiments import reproduce_runtime_vs_matrices
from repro.tables import ExperimentRow, render_table

def test_runtime_vs_matrices(record_table):
    report = reproduce_runtime_vs_matrices()

    rows = []
    expectations = {"immediate": 13, "snapshot": 19, "collect": 25}
    for name, data in report.items():
        assert data["sound"], name
        assert data["total"] == expectations[name]
        rows.append(
            ExperimentRow(
                f"{name}: op-level views ⊆ matrices",
                "yes",
                str(data["sound"]),
                data["sound"],
            )
        )
        rows.append(
            ExperimentRow(
                f"{name}: distinct view maps reached",
                f"≤ {expectations[name]}",
                f"{data['reached']}/{data['total']}",
                data["reached"] <= data["total"],
            )
        )
    # The IS executor is complete for n = 3 at this sample size.
    assert report["immediate"]["reached"] == 13
    record_table(
        "E16_runtime_vs_matrices",
        render_table(
            "E16 / Appendix A — real interleavings vs matrix schedules", rows
        ),
    )
