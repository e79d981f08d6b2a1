"""E20 (extension) — affine models: concurrency as a resource.

The paper proves its speedup theorem for any iterated model allowing solo
executions, explicitly including affine restrictions of IIS.  This bench
explores the *k-concurrency* family (at most k processes per block) with
the library's engines and records three findings:

* **k = 1, n = 2**: consensus becomes 1-round solvable — removing the
  "both see both" execution breaks the path of Corollary 1's proof;
* **k = 1, n = 3**: consensus is still impossible.  Plain consensus is not
  a fixed point (its 2-process faces are now solvable — the same
  phenomenon as test&set in Corollary 2), but the paper's *relaxed*
  consensus is a fixed point of the sequential model, so Lemma 1 applies.
  A new impossibility proved with the paper's own technique;
* **k = 2, n = 3**: plain consensus is again a fixed point (enough
  concurrency for the original argument).

It also records the empirical model-robustness of the halving map: Eq. (3)
stays correct under snapshot and even collect schedules at n = 3 — lower
bounds proved in IIS apply a fortiori to those weaker models, and the
matching algorithm happens not to need immediacy there.
"""

from repro.experiments import reproduce_affine_concurrency
from repro.tables import ExperimentRow, render_table

def test_affine_concurrency(record_table):
    data = reproduce_affine_concurrency()

    assert data["sequential_2proc"]
    assert not data["sequential_3proc_1round"]
    assert data["relaxed_fixed_point"] and data["relaxed_unsolvable"]
    assert data["two_concurrency_fixed_point"]
    assert all(w <= data["eps"] for w in data["halving_worst"].values())

    rows = [
        ExperimentRow(
            "k=1, n=2: consensus in 1 round",
            "solvable (path argument breaks)",
            "solvable" if data["sequential_2proc"] else "unsolvable",
            data["sequential_2proc"],
        ),
        ExperimentRow(
            "k=1, n=3: consensus in 1 round",
            "unsolvable",
            "unsolvable" if not data["sequential_3proc_1round"] else "?",
            not data["sequential_3proc_1round"],
        ),
        ExperimentRow(
            "k=1, n=3: relaxed consensus fixed point",
            "yes ⟹ unsolvable (new, via Lemma 1)",
            str(data["relaxed_unsolvable"]),
            data["relaxed_unsolvable"],
        ),
        ExperimentRow(
            "k=2, n=3: consensus fixed point",
            "yes (Corollary 1 argument survives)",
            str(data["two_concurrency_fixed_point"]),
            data["two_concurrency_fixed_point"],
        ),
        ExperimentRow(
            f"halving AA worst spread under snapshot (ε={data['eps']})",
            "≤ ε (comparable views suffice)",
            str(data["halving_worst"]["snapshot"]),
            data["halving_worst"]["snapshot"] <= data["eps"],
        ),
        ExperimentRow(
            f"halving AA worst spread under collect (ε={data['eps']})",
            "≤ ε (empirical robustness)",
            str(data["halving_worst"]["collect"]),
            data["halving_worst"]["collect"] <= data["eps"],
        ),
    ]
    record_table(
        "E20_affine_concurrency",
        render_table(
            "E20 (extension) — concurrency-restricted affine models", rows
        ),
    )
