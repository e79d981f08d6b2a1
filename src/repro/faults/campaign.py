"""The chaos campaign runner: randomized executions with budget guards.

A *campaign* runs ``N`` seed-derived randomized executions of one cell —
an (algorithm, model, n, t) combination — and classifies every execution
with the cell's property oracle (:mod:`repro.faults.oracles`).  The runner
is built to survive its own subjects:

* **budgets** — every execution runs under a step budget and a monotonic
  wall-clock deadline (no signals involved), so a non-terminating
  algorithm is classified ``HUNG`` instead of stalling the campaign; a
  campaign-wide deadline skips the remaining executions once exceeded;
* **error isolation** — an execution that raises is converted into a
  structured :class:`CampaignIncident` (exception type, message, seed)
  and the campaign continues;
* **one adversary** — each execution runs under one seeded chaos
  adversary that makes every decision the model leaves open (schedule,
  mid-round crashes under the budget ``t``, box choices) and, with an
  illegal mode, hands the executor a faulty register array or box
  output to prove the executor's cross-checks fire;
* **determinism** — execution ``i`` derives its RNG seeds from
  ``(campaign seed, i)`` only, so re-running a campaign reproduces every
  classification, and any single execution can be re-run alone from its
  recorded seed;
* **accounting** — every execution ticks the
  ``faults.campaign.executions`` counter of
  :func:`repro.telemetry.default_registry` (the ledger's trial count),
  and reports render to text (via :mod:`repro.analysis.reporting`) or
  deterministic JSON.

Violating executions carry a replayable
:class:`~repro.faults.injectors.FaultTrace`; feed it to
:func:`replay_trace` (or ``repro chaos --replay``) to reproduce the
verdict, or to :func:`repro.faults.shrink.shrink_trace` to minimize it.
"""

from __future__ import annotations

import random
import time
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from repro.analysis.reporting import render_rows
from repro.errors import (
    ExecutionBudgetExceeded,
    FaultInjectionError,
    ReproError,
    RuntimeModelError,
)
from repro.faults.fixtures import (
    ExplodingAlgorithm,
    IISConsensusAttempt,
    StubbornAlgorithm,
    TooFewRoundsAA,
)
from repro.faults.injectors import FaultTrace
from repro.faults.oracles import (
    DECIDED_OK,
    HARNESS_FAULT_DETECTED,
    HUNG,
    VIOLATION,
    ApproximateAgreementOracle,
    ConsensusOracle,
    KSetAgreementOracle,
    PropertyOracle,
    Violation,
)
from repro.algorithms.approximate_agreement import (
    HalvingAA,
    TwoProcessThirdsAA,
)
from repro.algorithms.consensus_bc import ConsensusViaBinaryConsensus
from repro.models.schedules import OneRoundSchedule
from repro.objects import BinaryConsensusBox
from repro.objects.base import BlackBox
from repro.runtime.adversary import (
    Adversary,
    RandomAdversary,
    RandomMatrixAdversary,
    ReplayAdversary,
)
from repro.runtime.algorithm import RoundAlgorithm
from repro.runtime.iterated import ExecutionResult, IteratedExecutor
from repro.runtime.registers import RegisterArray
from repro.telemetry import default_registry, span

__all__ = [
    "CampaignConfig",
    "CampaignIncident",
    "CampaignReport",
    "ExecutionOutcome",
    "CellSpec",
    "CELLS",
    "ILLEGAL_MODES",
    "run_campaign",
    "classify_execution",
    "replay_trace",
    "render_report",
    "report_to_json",
]

# Fetched once at import time (hot path).
_EXECUTIONS = default_registry().cache("faults.campaign.executions")

#: How many non-OK outcomes a report keeps in full (witness + trace).
_MAX_KEPT = 25

#: The illegal modes selectable via ``--inject-illegal``.  Each breaks the
#: model in round 1: a write is lost, a write is missing from every
#: snapshot, or the box output of process min(P) is forged.
ILLEGAL_MODES = ("lost-write", "stale-snapshot", "bad-box")

#: The process whose register the ``lost-write`` and ``stale-snapshot``
#: modes break.
_VICTIM = 1
#: Output value no black box ever produces: the forged ``bad-box`` output.
_BOGUS_OUTPUT = "⊥-injected"

#: Per-participant, per-round probability that the chaos adversary
#: crashes a process mid-round (while the crash budget ``t`` lasts).
CRASH_PROBABILITY = 0.15
#: Algorithm steps one execution may take before it is classified
#: ``HUNG``.
STEP_BUDGET = 20_000
#: Wall-clock seconds one campaign execution may take (monotonic clock).
EXECUTION_DEADLINE = 30.0


# ----------------------------------------------------------------------
# Cells: the (algorithm, oracle, box) combinations a campaign can target
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One chaos target: algorithm factory + referee + box + inputs."""

    key: str
    summary: str
    build: Callable[[int, Fraction], RoundAlgorithm]
    oracle: Callable[[int, Fraction], PropertyOracle]
    #: ``(n, ε, seed)`` → one execution's inputs.
    sample_inputs: Callable[[int, Fraction, int], dict[int, Hashable]]
    parse_input: Callable[[str], Hashable]
    make_box: Optional[Callable[[], BlackBox]] = None
    #: Models the cell supports.  Black-box cells need temporal blocks, so
    #: they are IIS-only (``OneRoundSchedule.blocks`` is undefined for
    #: general matrix schedules).
    models: tuple[str, ...] = ("iis", "snapshot", "collect")
    min_n: int = 2
    max_n: Optional[int] = None
    #: Broken/pathological fixtures: violations (or hangs) are *expected*.
    broken: bool = False


def _grid_inputs(
    n: int, epsilon: Fraction, seed: int
) -> dict[int, Hashable]:
    """Uniform inputs on the ε-grid ``{0, 1/m, …, 1}``, ``m = 1/ε``."""
    rng = random.Random(seed)
    m = epsilon.denominator
    return {
        process: Fraction(rng.randrange(m + 1), m)
        for process in range(1, n + 1)
    }


def _named_inputs(
    n: int, epsilon: Fraction, seed: int
) -> dict[int, Hashable]:
    """Distinct symbolic inputs ``v1 … vn`` (consensus-style cells).

    The same for every seed, so no RNG is seeded for them.
    """
    return {process: f"v{process}" for process in range(1, n + 1)}


CELLS: dict[str, CellSpec] = {
    spec.key: spec
    for spec in (
        CellSpec(
            key="aa",
            summary="halving ε-AA (Eq. 3), ⌈log₂ 1/ε⌉ IIS rounds",
            build=lambda n, eps: HalvingAA(eps),
            oracle=lambda n, eps: ApproximateAgreementOracle(eps),
            sample_inputs=_grid_inputs,
            parse_input=Fraction,
        ),
        CellSpec(
            key="aa2",
            summary="two-process thirds ε-AA (Eq. 2), ⌈log₃ 1/ε⌉ rounds",
            build=lambda n, eps: TwoProcessThirdsAA(eps),
            oracle=lambda n, eps: ApproximateAgreementOracle(eps),
            sample_inputs=_grid_inputs,
            parse_input=Fraction,
            min_n=2,
            max_n=2,
        ),
        CellSpec(
            key="consensus",
            summary="consensus via binary-consensus box, ⌈log₂ n⌉ rounds",
            build=lambda n, eps: ConsensusViaBinaryConsensus(n),
            oracle=lambda n, eps: ConsensusOracle(),
            sample_inputs=_named_inputs,
            parse_input=str,
            make_box=BinaryConsensusBox,
            models=("iis",),
        ),
        CellSpec(
            key="aa-broken",
            summary="halving ε-AA run one round short (must violate ε)",
            build=lambda n, eps: TooFewRoundsAA(eps),
            oracle=lambda n, eps: ApproximateAgreementOracle(eps),
            sample_inputs=_grid_inputs,
            parse_input=Fraction,
            broken=True,
        ),
        CellSpec(
            key="consensus-broken",
            summary="consensus attempted in plain IIS (Corollary 1 says no)",
            build=lambda n, eps: IISConsensusAttempt(),
            oracle=lambda n, eps: ConsensusOracle(),
            sample_inputs=_named_inputs,
            parse_input=str,
            broken=True,
        ),
        CellSpec(
            key="hang",
            summary="non-converging no-op algorithm (exercises HUNG)",
            build=lambda n, eps: StubbornAlgorithm(),
            oracle=lambda n, eps: KSetAgreementOracle(n),
            sample_inputs=_named_inputs,
            parse_input=str,
            broken=True,
        ),
        CellSpec(
            key="exploding",
            summary="raises mid-round (exercises incident isolation)",
            build=lambda n, eps: ExplodingAlgorithm(),
            oracle=lambda n, eps: KSetAgreementOracle(n),
            sample_inputs=_named_inputs,
            parse_input=str,
            broken=True,
        ),
    )
}


def get_cell(key: str) -> CellSpec:
    """Look up a campaign cell by key."""
    try:
        return CELLS[key]
    except KeyError:
        known = ", ".join(sorted(CELLS))
        raise ReproError(
            f"unknown chaos cell {key!r}; known cells: {known}"
        ) from None


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs; validated by :meth:`validate`."""

    cell: str = "aa"
    model: str = "iis"
    n: int = 3
    t: int = 1
    executions: int = 100
    seed: int = 0
    epsilon: Fraction = Fraction(1, 8)
    deadline: Optional[float] = None
    illegal: Optional[str] = None

    def validate(self) -> None:
        """Raise :class:`ReproError` on an inconsistent configuration."""
        spec = get_cell(self.cell)
        if self.model not in ("iis", "snapshot", "collect"):
            raise ReproError(
                f"unknown model {self.model!r}: use iis/snapshot/collect"
            )
        if self.model not in spec.models:
            raise ReproError(
                f"cell {self.cell!r} supports models "
                f"{'/'.join(spec.models)}, not {self.model!r}"
            )
        if self.n < spec.min_n:
            raise ReproError(
                f"cell {self.cell!r} needs n ≥ {spec.min_n}, got {self.n}"
            )
        if spec.max_n is not None and self.n > spec.max_n:
            raise ReproError(
                f"cell {self.cell!r} needs n ≤ {spec.max_n}, got {self.n}"
            )
        if not 0 <= self.t < self.n:
            raise ReproError(
                f"crash budget t={self.t} must satisfy 0 ≤ t < n={self.n}"
            )
        if self.executions < 1:
            raise ReproError("at least one execution is required")
        if not 0 < self.epsilon <= 1:
            raise ReproError(f"ε = {self.epsilon} outside (0, 1]")
        if self.deadline is not None and self.deadline < 0:
            raise ReproError(
                f"campaign deadline {self.deadline}s must not be negative"
            )
        if self.illegal is not None:
            if self.illegal not in ILLEGAL_MODES:
                raise ReproError(
                    f"unknown illegal mode {self.illegal!r}; known: "
                    + ", ".join(ILLEGAL_MODES)
                )
            if self.illegal == "bad-box" and get_cell(self.cell).make_box is None:
                raise ReproError(
                    "the bad-box mode needs a cell with a black box"
                )


@dataclass(frozen=True)
class ExecutionOutcome:
    """One classified execution kept in the report."""

    index: int
    seed: int
    classification: str
    property: str = ""
    witness: str = ""
    trace: Optional[FaultTrace] = None


@dataclass(frozen=True)
class CampaignIncident:
    """A raising execution, isolated and recorded (campaign continues)."""

    index: int
    seed: int
    error: str
    message: str


@dataclass
class CampaignReport:
    """Aggregate campaign outcome (text and JSON renderable)."""

    config: CampaignConfig
    counts: dict[str, int] = field(default_factory=dict)
    violations: list[ExecutionOutcome] = field(default_factory=list)
    hung: list[ExecutionOutcome] = field(default_factory=list)
    detected: list[ExecutionOutcome] = field(default_factory=list)
    incidents: list[CampaignIncident] = field(default_factory=list)
    skipped: int = 0

    @property
    def clean(self) -> bool:
        """No violations, hangs, or incidents.

        With an illegal mode every execution that ran must instead be
        ``HARNESS_FAULT_DETECTED``: a fault that passed is not clean.
        """
        if self.incidents:
            return False
        if self.config.illegal is not None:
            return all(
                count == 0
                for label, count in self.counts.items()
                if label != HARNESS_FAULT_DETECTED
            )
        return (
            self.counts.get(VIOLATION, 0) == 0
            and self.counts.get(HUNG, 0) == 0
        )


# ----------------------------------------------------------------------
# Execution machinery
# ----------------------------------------------------------------------
class _BudgetedAlgorithm(RoundAlgorithm):
    """Wrap an algorithm with :data:`STEP_BUDGET` and a monotonic deadline."""

    def __init__(
        self, inner: RoundAlgorithm, deadline_at: Optional[float]
    ) -> None:
        self._inner = inner
        self._deadline_at = deadline_at
        self._steps = 0
        self.rounds = inner.rounds
        self.name = inner.name

    def initial_state(self, process: int, input_value: Hashable) -> object:
        return self._inner.initial_state(process, input_value)

    def box_input(
        self, process: int, state: object, round_index: int
    ) -> Hashable:
        return self._inner.box_input(process, state, round_index)

    def step(
        self,
        process: int,
        state: object,
        seen_states: Mapping[int, object],
        box_output: Optional[Hashable],
        round_index: int,
    ) -> object:
        self._steps += 1
        if self._steps > STEP_BUDGET:
            raise ExecutionBudgetExceeded(
                f"step budget {STEP_BUDGET} exhausted at round "
                f"{round_index}"
            )
        if (
            self._deadline_at is not None
            and time.monotonic() > self._deadline_at
        ):
            raise ExecutionBudgetExceeded(
                f"wall-clock deadline exceeded at round {round_index}"
            )
        return self._inner.step(
            process, state, seen_states, box_output, round_index
        )

    def decide(self, process: int, state: object) -> Hashable:
        return self._inner.decide(process, state)


def derive_seed(campaign_seed: int, index: int) -> int:
    """The deterministic per-execution seed (stable across runs)."""
    return (campaign_seed * 1_000_003 + index) % (2**31 - 1)


class _LostWriteArray(RegisterArray):
    """Illegal register fault: every write by :data:`_VICTIM` is lost."""

    def write(self, process: int, value: Hashable) -> None:
        if process != _VICTIM:
            super().write(process, value)


class _StaleSnapshotArray(RegisterArray):
    """Illegal register fault: snapshots never show :data:`_VICTIM`."""

    def snapshot(self) -> dict[int, Hashable]:
        content = super().snapshot()
        content.pop(_VICTIM, None)
        return content


class _ChaosAdversary(Adversary):
    """The campaign's adversary: the model's random scheduler plus faults.

    Crashes before a round and the schedule come from the wrapped
    scheduler.  On top of that, three seeded streams, each drawn in a
    fixed order so every execution replays from its seed:

    * mid-round crashes from ``seed + 1``: each participant dies between
      its write and its snapshot with :data:`CRASH_PROBABILITY`, at most
      ``budget`` over the execution, and never the round's last survivor;
    * box choices from ``seed + 2``: the wrapped scheduler draws its own
      choice first, which keeps its stream and so every recorded seed
      unchanged, then a seeded admissible option replaces it;
    * the ``illegal`` mode (:data:`ILLEGAL_MODES`), which breaks round 1
      for the executor's cross-checks to catch.

    Each stream is seeded on its first draw, so a cell without a box, or
    an execution with no crash budget, seeds no stream it never draws.
    """

    def __init__(
        self,
        inner: Adversary,
        seed: int,
        budget: int,
        illegal: Optional[str] = None,
    ) -> None:
        self._inner = inner
        self._seed = seed
        self._crash_rng: Optional[random.Random] = None
        self._box_rng: Optional[random.Random] = None
        self._budget = budget
        self._illegal = illegal

    def crashes(
        self, round_index: int, active: frozenset[int]
    ) -> frozenset[int]:
        return self._inner.crashes(round_index, active)

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        return self._inner.schedule(round_index, active)

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        participants = schedule.ordered_participants
        # At most the remaining budget, and never the round's last
        # survivor: the loop stops drawing once ``limit`` processes died.
        limit = min(self._budget, len(participants) - 1)
        if limit <= 0:
            return frozenset()
        if self._crash_rng is None:
            self._crash_rng = random.Random(self._seed + 1)
        draw = self._crash_rng.random
        doomed: list[int] = []
        for process in participants:
            if len(doomed) >= limit:
                break
            if draw() < CRASH_PROBABILITY:
                doomed.append(process)
        self._budget -= len(doomed)
        return frozenset(doomed)

    def register_array(
        self, round_index: int, ids: tuple[int, ...]
    ) -> RegisterArray:
        if round_index == 1 and self._illegal == "lost-write":
            return _LostWriteArray(ids)
        if round_index == 1 and self._illegal == "stale-snapshot":
            return _StaleSnapshotArray(ids)
        return RegisterArray(ids)

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Mapping[int, object]],
    ) -> Mapping[int, object]:
        self._inner.choose_assignment(round_index, schedule, options)
        if self._box_rng is None:
            self._box_rng = random.Random(self._seed + 2)
        chosen = options[self._box_rng.randrange(len(options))]
        if round_index == 1 and self._illegal == "bad-box":
            chosen = {
                **chosen,
                min(schedule.participants): _BOGUS_OUTPUT,
            }
        return chosen


def _make_adversary(config: CampaignConfig, seed: int) -> Adversary:
    inner: Adversary
    if config.model == "iis":
        inner = RandomAdversary(seed=seed)
    else:
        inner = RandomMatrixAdversary(kind=config.model, seed=seed)
    return _ChaosAdversary(inner, seed, config.t, config.illegal)


def classify_execution(
    algorithm: RoundAlgorithm,
    inputs: Mapping[int, Hashable],
    adversary: Adversary,
    box: Optional[BlackBox],
    oracle: PropertyOracle,
    deadline_at: Optional[float] = None,
) -> tuple[str, Optional[Violation], Optional[ExecutionResult]]:
    """Run one execution and classify it (see :mod:`repro.faults.oracles`).

    Returns ``(classification, violation, result)``; the violation is
    ``None`` for ``DECIDED_OK`` and the result is ``None`` when the
    execution did not complete.  Exceptions other than the budget guard
    and the safety net propagate — the campaign loop isolates them.
    """
    guarded = _BudgetedAlgorithm(algorithm, deadline_at)
    executor = IteratedExecutor(box=box)
    try:
        result = executor.run(guarded, inputs, adversary)
    except ExecutionBudgetExceeded as exc:
        return HUNG, Violation("liveness", str(exc)), None
    except FaultInjectionError as exc:
        return HARNESS_FAULT_DETECTED, Violation("safety-net", str(exc)), None
    violation = oracle.check(inputs, result)
    if violation is not None:
        return VIOLATION, violation, result
    return DECIDED_OK, None, result


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the whole campaign; never raises on a misbehaving execution."""
    config.validate()
    spec = get_cell(config.cell)
    report = CampaignReport(
        config=config,
        counts={
            DECIDED_OK: 0,
            VIOLATION: 0,
            HUNG: 0,
            HARNESS_FAULT_DETECTED: 0,
        },
    )
    kept = {
        VIOLATION: report.violations,
        HUNG: report.hung,
        HARNESS_FAULT_DETECTED: report.detected,
    }
    # The cell's algorithm, oracle and box hold no state, so one of each
    # serves the whole campaign; each execution still gets its own step
    # budget and deadline (classify_execution wraps the algorithm).  They
    # are built inside the first execution's error isolation: a cell that
    # cannot be built for this ε turns every execution into an incident.
    parts: Optional[
        tuple[RoundAlgorithm, PropertyOracle, Optional[BlackBox]]
    ] = None
    campaign_deadline_at = (
        time.monotonic() + config.deadline
        if config.deadline is not None
        else None
    )
    with span(
        "chaos/campaign",
        cell=config.cell,
        model=config.model,
        n=config.n,
        t=config.t,
        executions=config.executions,
        seed=config.seed,
    ) as campaign_span:
        for index in range(config.executions):
            if (
                campaign_deadline_at is not None
                and time.monotonic() > campaign_deadline_at
            ):
                report.skipped = config.executions - index
                break
            seed = derive_seed(config.seed, index)
            inputs = spec.sample_inputs(config.n, config.epsilon, seed)
            execution_deadline_at = time.monotonic() + EXECUTION_DEADLINE
            incident: Optional[CampaignIncident] = None
            # One span per execution, carrying the oracle's verdict (or
            # "INCIDENT"); it stays open across classification so
            # executor/oracle work nests under it.
            with span("chaos/trial", index=index, seed=seed) as trial_span:
                try:
                    if parts is None:
                        parts = (
                            spec.build(config.n, config.epsilon),
                            spec.oracle(config.n, config.epsilon),
                            (
                                spec.make_box()
                                if spec.make_box is not None
                                else None
                            ),
                        )
                    algorithm, oracle, box = parts
                    classification, violation, result = classify_execution(
                        algorithm=algorithm,
                        inputs=inputs,
                        adversary=_make_adversary(config, seed),
                        box=box,
                        oracle=oracle,
                        deadline_at=execution_deadline_at,
                    )
                except Exception as exc:
                    # Error isolation: one raising execution never kills
                    # the campaign; it becomes a structured incident.
                    trial_span.set_attribute("verdict", "INCIDENT")
                    trial_span.set_attribute("error", type(exc).__name__)
                    incident = CampaignIncident(
                        index=index,
                        seed=seed,
                        error=type(exc).__name__,
                        message=str(exc),
                    )
                else:
                    trial_span.set_attribute("verdict", classification)
            _EXECUTIONS.built()
            if incident is not None:
                report.incidents.append(incident)
                continue
            report.counts[classification] += 1
            if classification == DECIDED_OK:
                continue
            outcomes = kept[classification]
            if len(outcomes) < _MAX_KEPT:
                assert violation is not None
                outcomes.append(
                    ExecutionOutcome(
                        index=index,
                        seed=seed,
                        classification=classification,
                        property=violation.property,
                        witness=violation.witness,
                        trace=(
                            FaultTrace(
                                inputs=tuple(
                                    (process, str(inputs[process]))
                                    for process in sorted(inputs)
                                ),
                                rounds=tuple(result.trace),
                                cell=spec.key,
                            )
                            if result is not None
                            else None
                        ),
                    )
                )
        campaign_span.set_attribute("clean", report.clean)
        campaign_span.set_attribute("incidents", len(report.incidents))
    return report


def replay_trace(
    trace: FaultTrace,
    epsilon: Fraction = Fraction(1, 8),
) -> tuple[str, Optional[Violation]]:
    """Deterministically re-execute a recorded trace and re-classify it.

    The trace's cell key selects the algorithm/oracle/box; the recorded
    inputs and per-round decisions are replayed through
    :class:`~repro.runtime.adversary.ReplayAdversary`.
    """
    spec = get_cell(trace.cell)
    try:
        inputs = trace.parsed_inputs(spec.parse_input)
    except (ValueError, ZeroDivisionError) as exc:
        raise RuntimeModelError(
            f"cell {trace.cell!r} cannot parse the trace's inputs: {exc}"
        ) from exc
    if not inputs:
        raise RuntimeModelError("trace has no inputs to replay")
    classification, violation, _ = classify_execution(
        algorithm=spec.build(len(inputs), epsilon),
        inputs=inputs,
        adversary=ReplayAdversary(trace.rounds),
        box=spec.make_box() if spec.make_box is not None else None,
        oracle=spec.oracle(len(inputs), epsilon),
    )
    return classification, violation


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report_to_json(report: CampaignReport) -> dict:
    """A deterministic JSON-serializable view (timing/memory excluded)."""
    config = report.config
    return {
        "config": {
            "cell": config.cell,
            "model": config.model,
            "n": config.n,
            "t": config.t,
            "executions": config.executions,
            "seed": config.seed,
            "epsilon": str(config.epsilon),
            "crash_probability": CRASH_PROBABILITY,
            "step_budget": STEP_BUDGET,
            "illegal": config.illegal,
        },
        "counts": {key: report.counts[key] for key in sorted(report.counts)},
        "skipped": report.skipped,
        "violations": [
            {
                "index": outcome.index,
                "seed": outcome.seed,
                "property": outcome.property,
                "witness": outcome.witness,
                "trace": (
                    None
                    if outcome.trace is None
                    else outcome.trace.to_json()
                ),
            }
            for outcome in report.violations
        ],
        "hung": [
            {
                "index": outcome.index,
                "seed": outcome.seed,
                "witness": outcome.witness,
            }
            for outcome in report.hung
        ],
        "detected": [
            {
                "index": outcome.index,
                "seed": outcome.seed,
                "witness": outcome.witness,
            }
            for outcome in report.detected
        ],
        "incidents": [
            {
                "index": incident.index,
                "seed": incident.seed,
                "error": incident.error,
                "message": incident.message,
            }
            for incident in report.incidents
        ],
    }


def render_report(report: CampaignReport) -> str:
    """The human-readable campaign summary."""
    config = report.config
    title = (
        f"chaos campaign: cell={config.cell} model={config.model} "
        f"n={config.n} t={config.t} seed={config.seed} "
        f"executions={config.executions}"
    )
    rows = [
        (label, str(report.counts.get(label, 0)))
        for label in (DECIDED_OK, VIOLATION, HUNG, HARNESS_FAULT_DETECTED)
    ]
    rows.append(("incidents", str(len(report.incidents))))
    if report.skipped:
        rows.append(("skipped (deadline)", str(report.skipped)))
    lines = [render_rows(title, rows, ("classification", "count"))]
    for outcome in report.violations:
        lines.append(
            f"violation @ execution {outcome.index} (seed {outcome.seed}): "
            f"{outcome.property}: {outcome.witness}"
        )
    for outcome in report.hung:
        lines.append(
            f"hung @ execution {outcome.index} (seed {outcome.seed}): "
            f"{outcome.witness}"
        )
    for incident in report.incidents:
        lines.append(
            f"incident @ execution {incident.index} "
            f"(seed {incident.seed}): {incident.error}: {incident.message}"
        )
    return "\n".join(lines)
