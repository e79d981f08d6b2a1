"""E19 (scaling) — how the combinatorial substrate grows.

Characterizes the implementation's scale limits declared in DESIGN.md:

* the chromatic subdivision's facet count is the Fubini number (ordered
  set partitions): 1, 3, 13, 75, 541 for n = 1..5;
* iterating IIS multiplies facets by 13 per round (n = 3);
* the closure computer's (Δ(σ), τ)-memoization collapses a full grid sweep
  to the number of distinct windows — measured hit counts.
"""

from repro.experiments import reproduce_scaling
from repro.tables import ExperimentRow, render_table

FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541}

def test_scaling(record_table):
    data = reproduce_scaling()

    rows = []
    for n, count in data["subdivision"].items():
        assert count == FUBINI[n]
        rows.append(
            ExperimentRow(
                f"subdivision facets, n={n}",
                f"Fubini({n}) = {FUBINI[n]}",
                str(count),
                count == FUBINI[n],
            )
        )
    for t, count in data["rounds"].items():
        expected = 13**t if t else 1
        assert count == expected
        rows.append(
            ExperimentRow(
                f"P^({t}) facets, n=3",
                f"13^{t} = {expected}",
                str(count),
                count == expected,
            )
        )
    assert data["cache_entries"] < data["queries"]
    rows.append(
        ExperimentRow(
            "closure sweep memoization (m=4, n=2)",
            "windows ≪ membership queries",
            f"{data['cache_entries']} cache entries for "
            f"{data['queries']} queries",
            data["cache_entries"] < data["queries"],
        )
    )
    record_table(
        "E19_scaling",
        render_table("E19 (scaling) — substrate growth characteristics", rows),
    )
