#!/usr/bin/env python3
"""Performance smoke check for the protocol-complex hot path.

Expands the 2-round immediate-snapshot protocol complex of a 3-process
input simplex — the workload behind every closure and solvability sweep —
and fails if it blows a deliberately generous wall-clock budget or
reproduces the wrong substrate.  The budget is two orders of magnitude
above the measured time on commodity hardware (~5 ms with the model-level
one-round memo, ~80 ms cold before it), so a failure means a real
regression, not a noisy machine.

Run directly (``python scripts/perf_smoke.py``) or through the test
wrapper ``tests/test_perf_smoke.py``.  Exit status 0 on success, 1 on
budget or shape failure.
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

#: Wall-clock budget for one cold 2-round expansion, in seconds.
BUDGET_SECONDS = 30.0

EXPECTED_FACETS = 169  # 13^2
EXPECTED_F_VECTOR = (99, 267, 169)


def run_smoke() -> dict:
    """Time a cold 2-round 3-process IIS expansion; return measurements."""
    from repro.models import ImmediateSnapshotModel, ProtocolOperator
    from repro.telemetry import default_registry
    from repro.topology import Simplex

    iis = ImmediateSnapshotModel()
    operator = ProtocolOperator(iis)
    triangle = Simplex([(1, "a"), (2, "b"), (3, "c")])

    registry = default_registry()
    before = registry.cache_snapshot()
    start = time.perf_counter()
    protocol = operator.of_simplex(triangle, 2)
    elapsed = time.perf_counter() - start
    stats = registry.cache_delta(before, registry.cache_snapshot())

    hits, misses = stats.get(
        "one-round-complex[iterated-immediate-snapshot]", (0, 0)
    )
    return {
        "seconds": elapsed,
        "facets": len(protocol.facets),
        "f_vector": protocol.f_vector(),
        "one_round_requests": hits + misses,
        "one_round_materializations": misses,
    }


def main() -> int:
    data = run_smoke()
    failures = []
    if data["seconds"] > BUDGET_SECONDS:
        failures.append(
            f"2-round expansion took {data['seconds']:.2f}s "
            f"(budget {BUDGET_SECONDS:.0f}s)"
        )
    if data["facets"] != EXPECTED_FACETS:
        failures.append(
            f"expected {EXPECTED_FACETS} facets, got {data['facets']}"
        )
    if data["f_vector"] != EXPECTED_F_VECTOR:
        failures.append(
            f"expected f-vector {EXPECTED_F_VECTOR}, got {data['f_vector']}"
        )
    if data["one_round_requests"] < data["one_round_materializations"]:
        failures.append("counter bookkeeping inconsistent")

    print(
        f"perf smoke: P^(2)(triangle) in {data['seconds'] * 1000:.1f} ms, "
        f"{data['facets']} facets, "
        f"{data['one_round_materializations']} one-round materializations "
        f"for {data['one_round_requests']} requests"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
