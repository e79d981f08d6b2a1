"""E22 (cache effectiveness) — one-round materializations saved.

The model-level memo introduced for ``one_round_complex`` is shared by
every :class:`ProtocolOperator` built over the same model, so the
closure-style sweep (independent operators, each expanding every face of
a 3-process simplex to two rounds) requests far more one-round complexes
than it materializes.  The pre-caching baseline materialized once per
request; the measured ``requests / materializations`` ratio is therefore
the saving factor, and the acceptance bar is ≥ 5×.
"""

from repro.experiments import reproduce_cache_effectiveness
from repro.tables import ExperimentRow, render_rows, render_table


def _counter_rows(stats):
    """``(cache, hits, misses, hit rate)`` cells per cache, by name.

    ``stats`` holds ``cache:<name>:hits|misses`` deltas; a delta omits
    a tally that did not move, so a missing tally reads as zero.
    """
    tallies: dict[str, list[int]] = {}
    for key, value in stats.items():
        name, kind = key[len("cache:"):].rsplit(":", 1)
        tallies.setdefault(name, [0, 0])[kind == "misses"] = int(value)
    for name in sorted(tallies):
        hits, misses = tallies[name]
        yield (name, str(hits), str(misses), f"{hits / (hits + misses):.1%}")


def test_cache_effectiveness(record_table):
    data = reproduce_cache_effectiveness()

    # The memoized run must reproduce the substrate bit-identically.
    assert data["facets"] == 169
    assert data["f_vector"] == (99, 267, 169)
    # Acceptance bar: ≥ 5× fewer materializations than requests.
    assert data["requests"] >= 5 * data["materializations"]
    # The per-operator (σ, rounds) memo also absorbs repeat requests.
    assert data["operator_requests"] >= data["operator_materializations"]

    rows = [
        ExperimentRow(
            "P^(2)(triangle) facets",
            "13² = 169",
            str(data["facets"]),
            data["facets"] == 169,
        ),
        ExperimentRow(
            "P^(2)(triangle) f-vector",
            "(99, 267, 169)",
            str(data["f_vector"]),
            data["f_vector"] == (99, 267, 169),
        ),
        ExperimentRow(
            "one-round materializations",
            f"≤ requests/5 = {data['requests'] / 5:.0f}",
            f"{data['materializations']} for {data['requests']} requests",
            data["requests"] >= 5 * data["materializations"],
        ),
        ExperimentRow(
            "saving factor vs pre-caching baseline",
            "≥ 5×",
            f"{data['saving_factor']:.1f}×",
            data["saving_factor"] >= 5,
        ),
    ]
    table = render_table(
        "E22 (cache effectiveness) — model-level one-round memo", rows
    )
    report = render_rows(
        "Counter deltas during the sweep",
        _counter_rows(data["stats"]),
        ("cache", "hits", "misses (constructions)", "hit rate"),
    )
    record_table("E22_cache_stats", table + "\n\n" + report)
