"""BENCH (telemetry) — the cost of *disabled* telemetry on a hot workload.

The tracer's contract (docs/OBSERVABILITY.md) is that instrumented hot
paths pay only a module-global check plus a shared no-op span handle
when no tracer is installed.  This harness quantifies that claim on the
E22 cache-effectiveness workload — the hot pattern of every closure and
solvability sweep — in three configurations:

* ``baseline`` — the wired modules' ``span`` bindings are replaced with
  a stub that returns the no-op span without even consulting the
  tracer state: the code as close to "spans never wired" as patching
  allows;
* ``disabled`` — the shipped fast path: no tracer installed, every
  ``span()`` call checks the module global and returns ``NOOP_SPAN``;
* ``enabled`` — a real tracer recording the full span tree, for scale.

The configurations are timed *interleaved* — every repeat measures all
three back to back, and the minimum per configuration is kept.  Timing
them in sequential blocks instead bakes clock-speed drift into the
comparison (observed: a >20 % phantom "overhead" from thermal drift
alone); interleaving puts every configuration under the same drift.
The verdict compares ``disabled`` to ``baseline``: the overhead must
stay under 3 %, and the verdict is printed.  A shared host can move the
baseline by more than that between repeats; when the interquartile
range of the baseline's own repeats exceeds 3 % of their median, the
run cannot tell a 3 % overhead from noise, and the verdict is
``UNRESOLVED`` (exit status 1) rather than PASS or FAIL.

Run directly::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from typing import Callable

from repro.experiments.performance import reproduce_cache_effectiveness
from repro.telemetry import NOOP_SPAN, Tracer, disable, enable

#: Every module that binds ``from repro.telemetry import span`` on a path
#: the E22 workload exercises.  ``from``-imports bind per module, so the
#: baseline must patch each binding, not the telemetry module itself.
WIRED_MODULES = (
    "repro.models.base",
    "repro.models.protocol",
    "repro.core.closure",
    "repro.core.solvability",
)

#: Acceptance threshold: disabled telemetry may cost at most this much.
MAX_OVERHEAD_PCT = 3.0


def _stub_span(name, **attributes):  # noqa: ANN001 - signature mirror
    """The no-wiring baseline: hand back the shared no-op span."""
    return NOOP_SPAN


def _patch_spans(stub: Callable) -> dict:
    saved = {}
    for module_name in WIRED_MODULES:
        module = importlib.import_module(module_name)
        saved[module_name] = module.span
        module.span = stub
    return saved


def _restore_spans(saved: dict) -> None:
    for module_name, original in saved.items():
        importlib.import_module(module_name).span = original


def _time_once() -> float:
    start = time.perf_counter()
    reproduce_cache_effectiveness()
    return time.perf_counter() - start


def run(repeats: int = 7) -> dict:
    """Measure the three configurations and return the result record."""
    # One untimed warmup absorbs import and allocator effects.
    _time_once()
    baselines: list[float] = []
    disabled = enabled = float("inf")
    for _ in range(repeats):
        saved = _patch_spans(_stub_span)
        try:
            baselines.append(_time_once())
        finally:
            _restore_spans(saved)

        disabled = min(disabled, _time_once())

        enable(Tracer())
        try:
            enabled = min(enabled, _time_once())
        finally:
            disable()

    baseline = min(baselines)
    overhead_pct = (
        (disabled - baseline) / baseline * 100.0 if baseline else 0.0
    )
    q1, _, q3 = statistics.quantiles(baselines, n=4, method="inclusive")
    spread_pct = (q3 - q1) / statistics.median(baselines) * 100.0
    if spread_pct > MAX_OVERHEAD_PCT:
        verdict = "UNRESOLVED"
    elif overhead_pct < MAX_OVERHEAD_PCT:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return {
        "baseline_s": baseline,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "overhead_pct": overhead_pct,
        "baseline_spread_pct": spread_pct,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="timed repetitions per configuration (min is kept)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 to measure the spread")
    record = run(repeats=args.repeats)
    print(
        f"baseline {record['baseline_s'] * 1000.0:.2f} ms | "
        f"disabled {record['disabled_s'] * 1000.0:.2f} ms | "
        f"enabled {record['enabled_s'] * 1000.0:.2f} ms"
    )
    print(
        f"disabled-telemetry overhead: {record['overhead_pct']:.2f}% "
        f"(budget {MAX_OVERHEAD_PCT}%, baseline spread "
        f"{record['baseline_spread_pct']:.2f}%) -> {record['verdict']}"
    )
    return 0 if record["verdict"] == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
