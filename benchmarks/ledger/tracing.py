"""Spans around the layers' public callables, recorded from outside.

The program is not edited: :class:`Recorder` wraps each target in
:data:`TARGETS` and rebinds every module attribute (or class attribute)
that points to the original, so a name imported elsewhere with
``from x import f`` is traced too.  A target that no longer exists is
reported in :attr:`Recorder.absent` and its metrics are left out.

A span is ``[target, start, end, parent, op, extra]``; ``parent`` is the
index of the enclosing span (``-1`` at the root) and ``extra`` a number
or label taken from the call (constraints compiled, search nodes, ...).
A span's self time is its duration minus the durations of its children;
calls are serial, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from workloads import PAPER_EXPERIMENTS

__all__ = [
    "TARGETS",
    "Target",
    "Recorder",
    "self_times",
    "layer_metrics",
    "PER_LAYER_UNITS",
]


class Target(NamedTuple):
    layer: str
    module: str
    qualname: str
    #: ``extra(args, result)`` is stored on the span.
    extra: Optional[Callable[[tuple, Any], Any]] = None


TARGETS: tuple[Target, ...] = (
    Target(
        "experiments",
        "repro.experiments.registry",
        "run_experiment",
        lambda args, result: str(args[0]).upper(),
    ),
    Target("closure", "repro.core.closure", "ClosureComputer.delta_prime"),
    Target("closure", "repro.core.closure", "ClosureComputer.legal_outputs"),
    Target(
        "solvability.compile",
        "repro.core.solvability",
        "build_solvability_problem",
        lambda args, result: len(result.constraints),
    ),
    Target(
        "solvability.prepare",
        "repro.core.solvability",
        "SolvabilityProblem.prepare_search",
        lambda args, result: int(result is None),
    ),
    # prepare_search runs inside solve, so solve's self time is the
    # search proper.
    Target(
        "solvability.search",
        "repro.core.solvability",
        "SolvabilityProblem.solve",
        lambda args, result: args[0].last_search_nodes,
    ),
    Target(
        "protocol.of_simplex",
        "repro.models.protocol",
        "ProtocolOperator.of_simplex",
    ),
    Target(
        "models.one_round",
        "repro.models.base",
        "ComputationModel.one_round_complex",
    ),
    Target("runtime", "repro.runtime.iterated", "IteratedExecutor.run"),
    Target("runtime", "repro.runtime.noniterated", "NonIteratedExecutor.run"),
    Target("faults.campaign", "repro.faults.campaign", "run_campaign"),
    Target("faults.shrink", "repro.faults.shrink", "shrink_trace"),
)

#: Registry cache counters whose call totals are reported as counts.
KERNEL_FAMILIES = (
    "adjacency-builds",
    "bfs-sweeps",
    "component-sweeps",
    "containment-filters",
    "pairwise-products",
    "popcount-sweeps",
    "ridge-tables",
)

#: Layers whose self time is summed against the traced pass's wall time.
#: ``experiments`` is left out: its self time is exactly the part of a
#: reproduction that no layer span covers, i.e. ``untraced.self_s``.
SELF_LAYERS = (
    "models.one_round",
    "protocol.of_simplex",
    "solvability.compile",
    "solvability.prepare",
    "solvability.search",
    "closure",
    "runtime",
    "faults.campaign",
    "faults.shrink",
)


def _per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in SELF_LAYERS}
    units.update(
        {
            "models.one_round.calls": "count",
            "models.one_round.hit_rate": "1",
            "protocol.of_simplex.calls": "count",
            "protocol.of_simplex.hit_rate": "1",
            "solvability.compile.constraints": "count",
            "solvability.prepare.refuted_frac": "1",
            "solvability.search.nodes": "count",
            "closure.membership.decisions": "count",
            "closure.membership.hit_rate": "1",
            "runtime.executions": "count",
            "faults.trials": "count",
        }
    )
    units.update({f"experiments.{e}_s": "s" for e in PAPER_EXPERIMENTS})
    units.update(
        {
            f"topology.kernels.{f.replace('-', '_')}": "count"
            for f in KERNEL_FAMILIES
        }
    )
    units["topology.complex.pruned_builds"] = "count"
    units["untraced.self_s"] = "s"
    units["host.calib_ms"] = "ms"
    units["trace.overhead_frac"] = "1"
    return units


#: Every per-layer metric name and its unit.
PER_LAYER_UNITS: dict[str, str] = _per_layer_units()


def _resolve(module_name: str, qualname: str) -> tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Recorder:
    """Keeps spans in memory while its wrappers are installed."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[list[Any]] = []
        #: Set by the caller before each operation; stored on each span.
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wrap every target that exists; note the others as absent."""
        for index, target in enumerate(self.targets):
            try:
                owner, attr, original = _resolve(
                    target.module, target.qualname
                )
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{target.module}:{target.qualname}")
                continue
            wrapper = self._wrap(index, original, target.extra)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                if module is None:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()

    def _rebind(
        self, owner: Any, name: str, original: Any, wrapper: Any
    ) -> None:
        setattr(owner, name, wrapper)
        self._rebound.append((owner, name, original))

    def _wrap(
        self,
        index: int,
        original: Callable[..., Any],
        extra: Optional[Callable[[tuple, Any], Any]],
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [
                index, clock(), 0.0,
                stack[-1] if stack else -1, recorder.op, None,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result

        return traced

    def absent_layers(self) -> set[str]:
        """Layers none of whose targets could be wrapped."""
        present = {
            t.layer
            for t in self.targets
            if f"{t.module}:{t.qualname}" not in self.absent
        }
        return {t.layer for t in self.targets} - present

    def write_chrome(self, path: Path, provenance: dict) -> None:
        """Write the spans as Chrome trace-event JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": self.targets[target].qualname,
                "cat": self.targets[target].layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": op, "parent": parent, "extra": extra},
            }
            for target, start, end, parent, op, extra in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": provenance}),
            encoding="utf-8",
        )


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per-span self time: duration minus the children's durations."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _calls(counts: dict[str, float], name: str) -> int:
    return int(
        counts.get(f"cache:{name}:hits", 0)
        + counts.get(f"cache:{name}:misses", 0)
    )


def _hit_rate(counts: dict[str, float], names: list[str]) -> float:
    hits = sum(counts.get(f"cache:{n}:hits", 0) for n in names)
    calls = sum(_calls(counts, n) for n in names)
    return hits / calls if calls else 0.0


def layer_metrics(
    recorder: Recorder, counts: dict[str, float], wall_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``counts`` is the pass's registry delta and ``wall_s`` its timed
    wall.  ``host.calib_ms`` and ``trace.overhead_frac`` need the untraced
    passes too and are added by the caller.
    """
    spans = recorder.spans
    layer_of = [recorder.targets[s[0]].layer for s in spans]
    own = self_times(spans)
    absent = recorder.absent_layers()
    metrics: dict[str, float] = {}

    def by_layer(layer: str) -> list[int]:
        return [i for i, name in enumerate(layer_of) if name == layer]

    def extra_total(layer: str) -> int:
        # A call that raised has no extra.
        return sum(spans[i][5] or 0 for i in by_layer(layer))

    for layer in SELF_LAYERS:
        if layer not in absent:
            metrics[f"{layer}.self_s"] = sum(own[i] for i in by_layer(layer))
    if "models.one_round" not in absent:
        metrics["models.one_round.calls"] = len(by_layer("models.one_round"))
    if "protocol.of_simplex" not in absent:
        metrics["protocol.of_simplex.calls"] = len(
            by_layer("protocol.of_simplex")
        )
    if "solvability.compile" not in absent:
        metrics["solvability.compile.constraints"] = extra_total(
            "solvability.compile"
        )
    if "solvability.prepare" not in absent:
        prepared = len(by_layer("solvability.prepare"))
        metrics["solvability.prepare.refuted_frac"] = (
            extra_total("solvability.prepare") / prepared if prepared else 0.0
        )
    if "solvability.search" not in absent:
        metrics["solvability.search.nodes"] = extra_total(
            "solvability.search"
        )
    if "runtime" not in absent:
        metrics["runtime.executions"] = len(by_layer("runtime"))
    if "experiments" not in absent:
        durations = {e: 0.0 for e in PAPER_EXPERIMENTS}
        for i in by_layer("experiments"):
            label = spans[i][5]
            if label in durations:
                durations[label] += spans[i][2] - spans[i][1]
        for experiment, seconds in durations.items():
            metrics[f"experiments.{experiment}_s"] = seconds

    # One cache counter per model instance name.
    one_round = sorted(
        {
            key[len("cache:"):].rsplit(":", 1)[0]
            for key in counts
            if key.startswith("cache:one-round-complex[")
        }
    )
    metrics["models.one_round.hit_rate"] = _hit_rate(counts, one_round)
    metrics["protocol.of_simplex.hit_rate"] = _hit_rate(
        counts, ["protocol-operator.of-simplex"]
    )
    metrics["closure.membership.decisions"] = counts.get(
        "cache:closure.membership:misses", 0
    )
    metrics["closure.membership.hit_rate"] = _hit_rate(
        counts, ["closure.membership"]
    )
    metrics["faults.trials"] = _calls(counts, "faults.campaign.executions")
    for family in KERNEL_FAMILIES:
        metrics[f"topology.kernels.{family.replace('-', '_')}"] = _calls(
            counts, f"kernels.{family}"
        )
    metrics["topology.complex.pruned_builds"] = _calls(
        counts, "simplicial-complex.pruned-builds"
    )
    metrics["untraced.self_s"] = wall_s - sum(
        metrics.get(f"{layer}.self_s", 0.0) for layer in SELF_LAYERS
    )
    return metrics
