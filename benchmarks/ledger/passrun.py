"""One ledger pass, run in a fresh interpreter by ``run.py``.

Usage: ``python benchmarks/ledger/passrun.py '<json spec>'`` where the
spec holds ``workload``, ``seed``, ``traced``, ``spawned_at`` (the
parent's ``time.monotonic()`` just before the spawn) and, for a traced
pass, ``trace_path``; with ``setup_only`` the process stops where the
first operation would start.  Prints one JSON record on standard output;
the program's own prints are sent to standard error.

The timed region is the operation loop alone: oracle checks and trace
export come after it.  All times in the record are raw; ``probe_ms``
and ``setup_probe_ms`` say how fast the host ran during the timed region
and during set-up (see :class:`HostProbe`).
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

from workloads import WORKLOADS, load_expected

#: Iterations of the probe loop: about 0.13 ms on the reference host.
PROBE_ITERATIONS = 2000
PROBE_INTERVAL_S = 0.02
#: Probes taken at the start and at the end of set-up.
SETUP_PROBES = 3


class HostProbe:
    """Times a fixed pure-Python loop every 20 ms while a pass runs.

    The reference host is a shared VM whose two vCPUs are hardware
    threads of one core: when a co-tenant loads the sibling thread, the
    program runs up to twice as slow, for seconds or minutes.  The probe
    loop slows down with it, so its mean time over a pass measures how
    fast the host ran during that pass.  The loop allocates no tracked
    objects, so it never triggers a collection of the program's heap.
    It costs under 1% of the pass.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._previous: Any = None

    def sample(self, *_: Any) -> None:
        """Time the loop once; also the ``SIGALRM`` handler."""
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        self.samples_ms.append((time.perf_counter() - start) * 1e3)

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(
            signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def registry_counts() -> dict[str, float]:
    """Cumulative registry counts; histogram sums are timings, so skipped."""
    from repro.telemetry import default_registry

    return {
        key: value
        for key, value in default_registry().snapshot().items()
        if not (key.startswith("hist:") and key.endswith(":sum"))
    }


def run_pass(
    workload: str,
    seed: int,
    traced: bool = False,
    trace_path: Optional[Path] = None,
    provenance: Optional[dict] = None,
    setup_only: bool = False,
) -> dict[str, Any]:
    """Set up, time every operation, then check each against its oracle."""
    probe = HostProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    spec = WORKLOADS[workload]
    ops = spec.make_inputs(seed)
    calls = spec.setup(ops)
    expected = load_expected() if workload == "paper" else {}

    recorder = None
    if traced:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    before = registry_counts()
    for _ in range(SETUP_PROBES):
        probe.sample()
    setup_probe_ms = statistics.fmean(probe.samples_ms)
    probe.samples_ms.clear()
    first_op_at = time.monotonic()
    if setup_only:
        return {"first_op_at": first_op_at, "setup_probe_ms": setup_probe_ms}

    results: list[Any] = []
    errors: list[Optional[str]] = []
    latencies: list[float] = []
    started = time.perf_counter()
    with probe, contextlib.redirect_stdout(sys.stderr):
        for index in range(len(calls)):
            # Drop each call once made, so the per-op objects it holds
            # (a fresh model and its memo caches) are freed as they would
            # be for a caller asking one question at a time.
            call, calls[index] = calls[index], None
            if recorder is not None:
                recorder.op = index
            op_start = time.perf_counter()
            try:
                results.append(call())
                errors.append(None)
            except Exception as exc:  # one failing op must not end the pass
                results.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - op_start)
            del call
    wall_s = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    after = registry_counts()
    counts = {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "first_op_at": first_op_at,
        "wall_s": wall_s,
        "op_ms": [seconds * 1e3 for seconds in latencies],
        "probe_ms": statistics.fmean(probe.samples_ms or [setup_probe_ms]),
        "setup_probe_ms": setup_probe_ms,
        "rss_mb": rss_mb,
        "counts": counts,
    }
    if recorder is not None:
        from tracing import layer_metrics

        recorder.uninstall()
        record["layers"] = layer_metrics(recorder, counts, wall_s)
        record["absent"] = recorder.absent
        if trace_path is not None:
            recorder.write_chrome(
                trace_path, dict(provenance or {}, workload=workload)
            )

    failures = []
    for op, result, error in zip(ops, results, errors):
        if error is None:
            error = spec.check(op, result, expected)
        failures.append(error)
    record["failures"] = failures
    return record


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    trace_path = spec.get("trace_path")
    record = run_pass(
        spec["workload"],
        spec["seed"],
        traced=spec["traced"],
        trace_path=Path(trace_path) if trace_path else None,
        provenance=spec.get("provenance"),
        setup_only=spec.get("setup_only", False),
    )
    record["setup_s"] = record["first_op_at"] - spec["spawned_at"]
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
