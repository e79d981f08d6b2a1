"""E2 — the closure machinery on the worked instance of Figs. 1–3.

Builds a local task Π_{τ,σ}, decides its 1-round solvability, and computes
a full Δ'(σ) — the three operations every later experiment composes.
"""

from repro.experiments import reproduce_closure_machinery
from repro.tables import ExperimentRow, render_table

def test_closure_machinery(record_table):
    data = reproduce_closure_machinery()

    assert not data["tau_in_delta"]
    assert data["witness_found"]
    assert data["tau_in_closure"]
    assert not data["tau_out_closure"]
    assert data["closure_size"] > data["delta_size"]

    rows = [
        ExperimentRow(
            "τ spread 2ε: legal per Δ?", "no", str(data["tau_in_delta"]), True
        ),
        ExperimentRow(
            "local task Π_{τ,σ} 1-round solvable",
            "yes (Fig. 2)",
            str(data["witness_found"]),
            data["witness_found"],
        ),
        ExperimentRow(
            "τ ∈ Δ'(σ)", "yes", str(data["tau_in_closure"]), data["tau_in_closure"]
        ),
        ExperimentRow(
            "τ spread 4ε ∈ Δ'(σ)",
            "no",
            str(data["tau_out_closure"]),
            not data["tau_out_closure"],
        ),
        ExperimentRow(
            "|Δ'(σ)| > |Δ(σ)| (closure is easier)",
            "yes",
            f"{data['closure_size']} > {data['delta_size']}",
            data["closure_size"] > data["delta_size"],
        ),
    ]
    record_table(
        "E2_closure_machinery",
        render_table("E2 / Figs. 1–3 — local tasks and closure membership", rows),
    )
