"""The performance ledger: every workload, per-pass metrics, traced layers.

Usage::

    python benchmarks/ledger/run.py [--workload W ...] [--seed S]
        [--seconds N] [--trace 0|1] [--out FILE]

Each pass runs in a fresh ``python`` process, one at a time: every
``repro`` invocation pays cold memo caches, so a fresh process measures
what a user pays, and no process-global cache can make later passes
free.  Passes of several workloads are interleaved round by round, with
the workload order rotated each round, so host drift spreads evenly.  A
workload keeps getting passes until its passes have used ``--seconds``
(default: ``run_seconds`` of ``BENCHMARK.json``), and at least
``MIN_PASSES``.  Reported times are scaled to the reference host's speed
by the probe each pass runs (``passrun.HostProbe``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` (the
default) also runs one traced pass per workload and reports the
per-layer metrics.  Every metric is printed by name with its unit; the
last line is one JSON object ``{correct, attempted, failed, metrics}``.
The exit code is non-zero if any operation failed or the registry counts
differed between passes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Chrome traces of the traced passes (ignored by git).
TRACE_DIR = ROOT / ".ledger"

MIN_PASSES = 3
#: Set-ups measured per workload: passes, topped up with processes that
#: stop where the first operation would start.
SETUP_SAMPLES = 10
#: A pass that has not finished by then is killed and all its ops fail.
PASS_TIMEOUT_S = 60.0
#: The host probe's loop time on the reference host with an idle sibling
#: thread.  Reported times are scaled by this over the pass's mean probe
#: time, i.e. expressed at the reference host's speed.
PROBE_REFERENCE_MS = 0.13

sys.path.insert(0, str(LEDGER_DIR))
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The end-to-end metrics gated by ``BENCHMARK.json``.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _summary(value: float, samples: list[float], unit: str) -> dict:
    return {
        "value": value,
        "unit": unit,
        "n": len(samples),
        "q1": percentile(samples, 25),
        "q3": percentile(samples, 75),
        "samples": samples,
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict[str, Any]:
    """Where and when the numbers were taken."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def pass_env() -> dict[str, str]:
    """Serial, unsanitized, hash-stable, importing ``repro`` from ``src``."""
    env = dict(os.environ)
    env.pop("REPRO_WORKERS", None)
    env.pop("REPRO_SANITIZE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_pass(
    workload: str,
    seed: int,
    traced: bool = False,
    trace_path: Optional[Path] = None,
    stamp: Optional[dict] = None,
    setup_only: bool = False,
) -> dict[str, Any]:
    """Run one pass in a fresh interpreter and return its record.

    A pass that dies, times out or prints no record comes back as
    ``{"dead": ...}``; the caller counts all of its ops as failed.
    """
    spec = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "trace_path": str(trace_path) if trace_path else None,
        "provenance": stamp,
        "setup_only": setup_only,
    }
    spec["spawned_at"] = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(LEDGER_DIR / "passrun.py"), json.dumps(spec)],
            cwd=ROOT,
            env=pass_env(),
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"dead": f"timed out after {PASS_TIMEOUT_S:.0f} s"}
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    tail = done.stderr.strip().splitlines()[-1:] or ["no record"]
    return {"dead": f"exit {done.returncode}: {tail[0]}"}


def run_passes(
    workloads: list[str],
    seed: int,
    seconds: float,
    traced: bool,
    stamp: dict,
    spawn: Callable[..., dict[str, Any]] = spawn_pass,
) -> dict[str, dict[str, Any]]:
    """Interleaved untraced passes, set-up top-ups, then one traced pass
    per workload."""
    runs: dict[str, dict[str, Any]] = {
        w: {"passes": [], "setups": [], "traced": None} for w in workloads
    }
    durations: dict[str, list[float]] = {w: [] for w in workloads}

    def wants_more(w: str) -> bool:
        used = durations[w]
        if len(used) < MIN_PASSES:
            return True
        return sum(used) + statistics.median(used) <= seconds

    round_index = 0
    while any(wants_more(w) for w in workloads):
        shift = round_index % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            if wants_more(w):
                started = time.monotonic()
                runs[w]["passes"].append(spawn(w, seed, stamp=stamp))
                durations[w].append(time.monotonic() - started)
        round_index += 1
    for w in workloads:
        for _ in range(SETUP_SAMPLES - len(runs[w]["passes"])):
            runs[w]["setups"].append(
                spawn(w, seed, stamp=stamp, setup_only=True)
            )
    if traced:
        for w in workloads:
            path = TRACE_DIR / f"trace-{w}-seed{seed}.json"
            runs[w]["traced"] = spawn(w, seed, True, path, stamp)
    return runs


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def host_scale(record: dict[str, Any]) -> float:
    """Factor taking one pass's raw times to reference host speed."""
    return PROBE_REFERENCE_MS / record["probe_ms"]


def summarize(
    workload: str, seed: int, run: dict[str, Any]
) -> dict[str, Any]:
    """Failures, determinism and every metric of one workload's run."""
    n_ops = len(WORKLOADS[workload].make_inputs(seed))
    records = run["passes"] + ([run["traced"]] if run["traced"] else [])
    attempted = failed = 0
    problems: list[str] = []
    for record in records + run["setups"]:
        # A process that dies fails every op of its pass; a set-up-only
        # process that lives runs none.
        if "dead" in record:
            attempted += n_ops
            failed += n_ops
            problems.append(f"pass died: {record['dead']}")
        elif "failures" in record:
            attempted += n_ops
            bad = [f for f in record["failures"] if f is not None]
            failed += len(bad)
            problems.extend(bad)
    live = [r for r in records if "dead" not in r]
    counts = [r["counts"] for r in live]
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        problems.append("registry counts differ between passes")

    summary: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "counts_repeat": counts_repeat,
        "problems": problems[:20],
        "probe_ms": [r["probe_ms"] for r in live],
        "end_to_end": {},
        "latency": {},
        "per_layer": {},
    }
    untraced = [r for r in run["passes"] if "dead" not in r]
    summary["passes"] = [
        {k: r[k] for k in ("wall_s", "setup_s", "rss_mb", "probe_ms", "op_ms")}
        for r in untraced
    ]
    setups = untraced + [r for r in run["setups"] if "dead" not in r]
    if untraced:
        summary["end_to_end"], summary["latency"] = end_to_end(
            untraced, setups
        )
    traced = run["traced"]
    if traced and "dead" not in traced and untraced:
        scale = host_scale(traced)
        layers = {
            name: value * scale if PER_LAYER_UNITS.get(name) == "s" else value
            for name, value in traced["layers"].items()
        }
        layers["host.calib_ms"] = statistics.median(summary["probe_ms"])
        layers["trace.overhead_frac"] = (
            traced["wall_s"] * scale
            / summary["end_to_end"]["wall_s"]["value"]
            - 1
        )
        summary["per_layer"] = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
            if name in layers
        }
        summary["absent"] = traced["absent"]
    return summary


def end_to_end(
    records: list[dict[str, Any]], setups: list[dict[str, Any]]
) -> tuple[dict[str, dict], dict[str, dict]]:
    """The gated metrics (medians over passes) and the per-op latency
    percentiles, pooled over every op of every pass.

    Times are at reference host speed: each pass's by its own probes
    (:func:`host_scale`), each set-up by the probes taken during it.  The
    latency percentiles are printed but not gated: across seeds the op at
    a given rank changes (``closure`` shuffles 63 ops of very different
    cost), so they spread wider than any useful bound.
    """
    scales = [host_scale(r) for r in records]
    walls = [r["wall_s"] * k for r, k in zip(records, scales)]
    setup_s = [
        r["setup_s"] * PROBE_REFERENCE_MS / r["setup_probe_ms"] for r in setups
    ]
    rss = [r["rss_mb"] for r in records]
    op_ms = [[ms * k for ms in r["op_ms"]] for r, k in zip(records, scales)]
    pooled = [ms for latencies in op_ms for ms in latencies]
    metrics = {
        name: _summary(
            statistics.median(samples), samples, END_TO_END_UNITS[name]
        )
        for name, samples in (
            ("wall_s", walls),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
        )
    }
    latency = {}
    for name, p in (("op_p50_ms", 50), ("op_p90_ms", 90)):
        per_pass = [percentile(latencies, p) for latencies in op_ms]
        latency[name] = _summary(percentile(pooled, p), per_pass, "ms")
        latency[name]["n"] = len(pooled)
    return metrics, latency


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _print_report(stamp: dict, summaries: dict[str, dict]) -> None:
    print(
        "# ledger rev={git_rev} dirty={dirty} python={python} "
        "nproc={nproc} seed={seed} date={date}".format(**stamp)
    )
    for workload, s in summaries.items():
        print(
            f"{workload}: attempted={s['attempted']} failed={s['failed']} "
            f"fail_frac={s['fail_frac']:.4f} (1) "
            f"counts_repeat={s['counts_repeat']} "
            f"probe_ms={[round(c, 4) for c in s['probe_ms']]}"
        )
        for name, m in [*s["end_to_end"].items(), *s["latency"].items()]:
            print(
                f"  {name:<12} {m['value']:>12.6g} {m['unit']:<5} "
                f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
            )
        for name, m in s["per_layer"].items():
            print(f"  {name:<40} {m['value']:>12.6g} {m['unit']}")
        for name in s.get("absent", []):
            print(f"  absent wrap target: {name}")
        for problem in s["problems"]:
            print(f"  FAIL {problem}")


def result_line(
    summaries: dict[str, dict], traced: bool
) -> dict[str, Any]:
    """The last output line, ``{correct, attempted, failed, metrics}``:
    metric names bare for one workload, else prefixed ``<workload>/``."""
    key = "per_layer" if traced else "end_to_end"
    prefix = len(summaries) > 1
    metrics = {
        (f"{w}/{name}" if prefix else name): {
            "value": m["value"],
            "unit": m["unit"],
        }
        for w, s in summaries.items()
        for name, m in s[key].items()
    }
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    correct = failed == 0 and all(
        s["counts_repeat"] for s in summaries.values()
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        help="pass budget per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, help="write the full ledger here")
    return parser.parse_args(argv)


def main(
    argv: Optional[list[str]] = None,
    spawn: Callable[..., dict[str, Any]] = spawn_pass,
) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        bench = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
        seconds = bench["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    # Byte-compile up front so no pass pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=False,
        capture_output=True,
    )
    stamp = provenance(args.seed)
    runs = run_passes(
        workloads, args.seed, seconds, bool(args.trace), stamp, spawn
    )
    summaries = {w: summarize(w, args.seed, runs[w]) for w in workloads}
    _print_report(stamp, summaries)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {"provenance": stamp, "workloads": summaries}, indent=1
            )
            + "\n",
            encoding="utf-8",
        )
    line = result_line(summaries, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
