"""E18 (ablation) — what makes the solvability engine fast.

DESIGN.md calls out two design choices in the decision procedure: pairwise
arc-consistency propagation and constraint-graph component decomposition.
This ablation measures both on the paper's canonical *refutation* instance
(ε = 1/4 approximate agreement is not 1-round solvable for two processes,
grid m = 4), counting explored search nodes:

* full engine (propagation + components) — refutes with zero search nodes
  (an empty domain is found during propagation);
* components only — each window's subproblem isolates its own failure;
* propagation only — the empty-domain window still kills the search;
* neither — chronological backtracking interleaves independent windows and
  rediscovers the same local failure over and over; we cap it with a node
  budget of 2·10⁶ and report the overrun (during development this
  configuration ran for minutes without terminating).
"""

from repro.analysis import ExperimentRow, render_table
from repro.experiments import reproduce_solver_ablation
from repro.experiments.performance import SOLVER_NODE_BUDGET as NODE_BUDGET

def test_solver_ablation(record_table):
    data = reproduce_solver_ablation()

    assert data["full"]["refuted"] and data["full"]["nodes"] == 0
    assert data["components_only"]["refuted"]
    assert data["propagation_only"]["refuted"]
    # Unassisted search must be orders of magnitude worse: either it blows
    # the node budget or it needed vastly more nodes than the aided runs.
    aided_worst = max(
        data["components_only"]["nodes"], data["propagation_only"]["nodes"]
    )
    assert data["none"]["exceeded"] or data["none"]["nodes"] > 100 * max(
        1, aided_worst
    )

    def cell(entry):
        if entry["exceeded"]:
            return f"> {NODE_BUDGET:,} nodes (budget hit)"
        return f"{entry['nodes']:,} nodes"

    rows = [
        ExperimentRow(
            "AC + components", "refutes with 0 search nodes", cell(data["full"]),
            data["full"]["nodes"] == 0,
        ),
        ExperimentRow(
            "components only", "small per-window searches",
            cell(data["components_only"]), data["components_only"]["refuted"],
        ),
        ExperimentRow(
            "AC only", "empty domain found by propagation",
            cell(data["propagation_only"]), data["propagation_only"]["refuted"],
        ),
        ExperimentRow(
            "neither", "exponential interleaved thrashing",
            cell(data["none"]),
            data["none"]["exceeded"] or data["none"]["nodes"] > aided_worst,
        ),
    ]
    record_table(
        "E18_solver_ablation",
        render_table(
            "E18 (ablation) — solvability-engine design choices "
            "(refuting 1-round ε=1/4 AA, n=2, m=4)",
            rows,
        ),
    )
