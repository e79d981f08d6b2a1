"""E21 (extension) — the non-iterated model, the conclusion's open question.

The paper proves the speedup theorem for iterated models and asks whether
it extends to non-iterated ones, noting the two settings are equivalent for
solvability but not known to be equivalent for round complexity.  This
bench gives the question empirical teeth:

* the round-indexed halving map of Eq. (3) — correct in every *iterated*
  model down to collect (see E20) — violates ε on a sizable fraction of
  random non-iterated interleavings, because reused registers expose stale
  previous-phase values that an iterated round structurally hides;
* even phase-synchronized non-iterated runs violate ε (the stale value of
  a process that has not yet written the current phase substitutes for the
  iterated model's "nothing written");
* filtering collected values by phase tag (``NonIteratedHalvingAA``)
  empirically restores ε-agreement on every interleaving tried, at the
  same round count — evidence that, for approximate agreement, the
  non-iterated model costs no extra rounds, consistent with the paper's
  suggestion that the models may be complexity-equivalent.
"""

from repro.experiments import reproduce_noniterated
from repro.tables import ExperimentRow, render_table


def test_noniterated_model(record_table):
    data = reproduce_noniterated()

    assert data["plain_async"]["violations"] > 0
    assert data["plain_sync"]["violations"] > 0
    assert data["filtered_async"]["violations"] == 0
    assert data["filtered_sync"]["violations"] == 0
    assert data["plain_async"]["max_skew"] >= 1

    samples = data["samples"]
    rows = [
        ExperimentRow(
            "plain halving, async interleavings",
            "violates ε (stale reads)",
            f"{data['plain_async']['violations']}/{samples} violations, "
            f"worst spread {data['plain_async']['worst']}",
            data["plain_async"]["violations"] > 0,
        ),
        ExperimentRow(
            "plain halving, phase barriers",
            "still violates ε (stale values ≠ ⊥)",
            f"{data['plain_sync']['violations']}/{samples} violations, "
            f"worst spread {data['plain_sync']['worst']}",
            data["plain_sync"]["violations"] > 0,
        ),
        ExperimentRow(
            "phase-filtered halving, async",
            "ε restored, same round count",
            f"{data['filtered_async']['violations']}/{samples} violations, "
            f"worst spread {data['filtered_async']['worst']}",
            data["filtered_async"]["violations"] == 0,
        ),
        ExperimentRow(
            "phase-filtered halving, barriers",
            "ε restored",
            f"{data['filtered_sync']['violations']}/{samples} violations",
            data["filtered_sync"]["violations"] == 0,
        ),
        ExperimentRow(
            "phase skew observed",
            "≥ 1 (genuinely non-iterated)",
            str(data["plain_async"]["max_skew"]),
            data["plain_async"]["max_skew"] >= 1,
        ),
    ]
    record_table(
        "E21_noniterated",
        render_table(
            "E21 (extension) — the non-iterated model "
            f"(ε = {data['eps']}, n = 3)",
            rows,
        ),
    )
