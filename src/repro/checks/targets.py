"""Audit targets: what ``repro check`` actually inspects per experiment.

Every experiment in :mod:`repro.experiments.registry` exercises a slice of
the library — some models, tasks, schedules, and (for the closure
experiments) a materialized ``CL_M(Π)``.  This module maps each experiment
identifier to named *target groups*; a group builds the live objects once
(memoized process-wide) and wraps them into
:class:`~repro.checks.rules.AuditTarget` records for the rule engine.

Groups are shared between experiments on purpose: ``repro check --all``
audits the union of the groups of every registered experiment, building
each group exactly once.  The construction stays deliberately small
(n ≤ 3, coarse grids) so the full audit runs in seconds while still
covering every model family, every task family, all three schedule
pools, and the closure machinery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from repro.checks.rules import AuditTarget
from repro.core.closure import ClosureComputer
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    SnapshotModel,
    distinct_schedules,
    k_concurrency_model,
)
from repro.models.base import ComputationModel
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
    relaxed_consensus_task,
    set_agreement_task,
)
from repro.tasks.task import Task
from repro.topology.carrier import CarrierMap
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

__all__ = [
    "TARGET_GROUPS",
    "build_group",
    "groups_for_experiment",
    "targets_for_experiment",
    "targets_for_all",
]


def _sample(n: int) -> Simplex:
    """The canonical input simplex on ``{1..n}`` with distinct values."""
    return Simplex((i, f"x{i}") for i in range(1, n + 1))


def _model_targets(
    path: str, model: ComputationModel, samples: tuple[Simplex, ...]
) -> list[AuditTarget]:
    """Model probes plus complex/carrier targets derived from the model."""
    targets = [
        AuditTarget("model", path, model, {"samples": samples}),
    ]
    for sigma in samples:
        targets.append(
            AuditTarget(
                "complex",
                f"{path}/P1({sigma!r})",
                model.one_round_complex(sigma),
            )
        )
        # The one-round protocol operator Ξ as a carrier map over the
        # faces of σ (union over participating faces) — monotone and
        # name-preserving by Section 2.2.
        targets.append(
            AuditTarget(
                "carrier",
                f"{path}/Ξ({sigma!r})",
                CarrierMap(
                    SimplicialComplex.from_simplex(sigma),
                    lambda face, m=model: m.protocol_complex_of_simplex(
                        face, 1
                    ),
                    name=f"Ξ[{model.name}]",
                ),
                {"expect_monotone": True},
            )
        )
    # Re-audit the memo after the probes above warmed the caches.
    targets.append(AuditTarget("model", f"{path}/memo", model, {}))
    return targets


def _task_targets(path: str, task: Task) -> list[AuditTarget]:
    """Task well-formedness plus its complexes and its Δ as a carrier."""
    return [
        AuditTarget("task", path, task),
        AuditTarget("complex", f"{path}/I", task.input_complex),
        AuditTarget("complex", f"{path}/O", task.output_complex),
        # Task maps are audited for name preservation only: the paper
        # deliberately does not require Δ to be monotone.
        AuditTarget("carrier", f"{path}/Δ", task.delta_map),
    ]


def _schedule_targets(path: str, n: int) -> list[AuditTarget]:
    """Every schedule of each model's shared pool over ``1..n``."""
    return [
        AuditTarget(
            "schedule",
            f"{path}/{label}[{index}]",
            schedule,
            {"schedule_model": label},
        )
        for kind, label in (
            ("collect", "collect"),
            ("snapshot", "snapshot"),
            ("immediate", "iis"),
        )
        for index, schedule in enumerate(
            distinct_schedules(kind, range(1, n + 1))
        )
    ]


def _closure_targets(
    path: str, task: Task, model: ComputationModel
) -> list[AuditTarget]:
    computer = ClosureComputer(task, model)
    closure = computer.as_task()
    targets = [
        AuditTarget(
            "closure", path, closure, {"base_task": task}
        ),
        AuditTarget("task", f"{path}/as-task", closure),
        AuditTarget("complex", f"{path}/O'", closure.output_complex),
        AuditTarget("carrier", f"{path}/Δ'", closure.delta_map),
    ]
    return targets


# ----------------------------------------------------------------------
# Group builders (memoized: --all builds each group once)
# ----------------------------------------------------------------------
def _group_models_n2() -> list[AuditTarget]:
    samples = (_sample(2),)
    targets: list[AuditTarget] = []
    for model in (CollectModel(), SnapshotModel(), ImmediateSnapshotModel()):
        targets.extend(
            _model_targets(f"models[n=2]/{model.name}", model, samples)
        )
    return targets


def _group_models_n3() -> list[AuditTarget]:
    samples = (_sample(3),)
    targets: list[AuditTarget] = []
    for model in (CollectModel(), SnapshotModel(), ImmediateSnapshotModel()):
        targets.extend(
            _model_targets(f"models[n=3]/{model.name}", model, samples)
        )
    return targets


def _group_affine() -> list[AuditTarget]:
    model = k_concurrency_model(ImmediateSnapshotModel(), 2)
    return _model_targets("models[affine]/2-concurrency", model, (_sample(3),))


def _group_tas() -> list[AuditTarget]:
    targets = _model_targets(
        "objects/IIS+TS[n=2]", AugmentedModel(TestAndSetBox()), (_sample(2),)
    )
    targets.extend(
        _model_targets(
            "objects/IIS+TS[n=3]",
            AugmentedModel(TestAndSetBox()),
            (_sample(3),),
        )
    )
    return targets


def _group_bc() -> list[AuditTarget]:
    beta = beta_input_function({1: 1, 2: 0, 3: 1})
    model = AugmentedModel(BinaryConsensusBox(), beta)
    return _model_targets("objects/IIS+BC[n=3]", model, (_sample(3),))


def _group_schedules_n2() -> list[AuditTarget]:
    return _schedule_targets("schedules[n=2]", 2)


def _group_schedules_n3() -> list[AuditTarget]:
    return _schedule_targets("schedules[n=3]", 3)


def _group_consensus_tasks() -> list[AuditTarget]:
    targets = _task_targets(
        "tasks/consensus[n=2]", binary_consensus_task([1, 2])
    )
    targets.extend(
        _task_targets("tasks/consensus[n=3]", binary_consensus_task([1, 2, 3]))
    )
    targets.extend(
        _task_targets(
            "tasks/relaxed-consensus[n=3]", relaxed_consensus_task([1, 2, 3])
        )
    )
    return targets


def _group_aa_tasks() -> list[AuditTarget]:
    eps = Fraction(1, 4)
    targets = _task_targets(
        "tasks/aa[n=2]", approximate_agreement_task([1, 2], eps, 4)
    )
    targets.extend(
        _task_targets(
            "tasks/liberal-aa[n=3]",
            liberal_approximate_agreement_task(
                [1, 2, 3], Fraction(1, 2), 2
            ),
        )
    )
    return targets


def _group_kset_task() -> list[AuditTarget]:
    return _task_targets(
        "tasks/2-set-agreement[n=3]",
        set_agreement_task([1, 2, 3], [0, 1, 2], 2),
    )


def _group_closure_consensus() -> list[AuditTarget]:
    return _closure_targets(
        "closure/CL_IIS(consensus[n=2])",
        binary_consensus_task([1, 2]),
        ImmediateSnapshotModel(),
    )


def _group_closure_aa() -> list[AuditTarget]:
    return _closure_targets(
        "closure/CL_IIS(1/2-AA[n=2])",
        approximate_agreement_task([1, 2], Fraction(1, 2), 2),
        ImmediateSnapshotModel(),
    )


#: Every named group of audit targets.
TARGET_GROUPS: dict[str, Callable[[], list[AuditTarget]]] = {
    "models-n2": _group_models_n2,
    "models-n3": _group_models_n3,
    "models-affine": _group_affine,
    "objects-tas": _group_tas,
    "objects-bc": _group_bc,
    "schedules-n2": _group_schedules_n2,
    "schedules-n3": _group_schedules_n3,
    "tasks-consensus": _group_consensus_tasks,
    "tasks-aa": _group_aa_tasks,
    "tasks-kset": _group_kset_task,
    "closure-consensus": _group_closure_consensus,
    "closure-aa": _group_closure_aa,
}

#: Which groups each experiment depends on.  Kept exhaustive on purpose —
#: ``repro check`` fails on unknown experiment ids, so a new registry
#: entry must be mapped here before it can ship (tested in tier-1).
_EXPERIMENT_GROUPS: dict[str, tuple[str, ...]] = {
    "E1": ("models-n3", "schedules-n3"),
    "E2": ("tasks-aa", "closure-aa", "models-n2"),
    "E3": ("tasks-consensus", "models-n2", "closure-consensus"),
    "E4": ("objects-tas", "tasks-consensus"),
    "E5": ("objects-tas",),
    "E6": ("objects-tas", "tasks-consensus"),
    "E7": ("tasks-aa", "closure-aa", "models-n2"),
    "E8": ("tasks-aa", "models-n3"),
    "E9": ("tasks-aa", "models-n2", "models-n3"),
    "E10": ("objects-tas", "tasks-aa"),
    "E11": ("objects-bc",),
    "E12": ("objects-bc", "tasks-aa"),
    "E13": ("models-n2", "models-n3", "tasks-consensus"),
    "E14": ("tasks-aa",),
    "E15": ("models-n2", "objects-tas", "objects-bc"),
    "E16": ("schedules-n2", "schedules-n3", "models-n3"),
    "E17": ("tasks-kset", "models-n3"),
    "E18": ("tasks-consensus", "models-n3"),
    "E19": ("models-n3", "schedules-n3"),
    "E20": ("models-affine", "tasks-consensus"),
    "E21": ("models-n2", "schedules-n2"),
    "E22": ("models-n3",),
    "E23": ("schedules-n3",),
}


@lru_cache(maxsize=None)
def build_group(name: str) -> tuple[AuditTarget, ...]:
    """Build (once) the audit targets of a named group."""
    try:
        builder = TARGET_GROUPS[name]
    except KeyError:
        known = ", ".join(sorted(TARGET_GROUPS))
        raise KeyError(
            f"unknown target group {name!r}; known groups: {known}"
        ) from None
    return tuple(builder())


def groups_for_experiment(identifier: str) -> tuple[str, ...]:
    """The target groups audited for one experiment id (e.g. ``"E7"``)."""
    key = get_experiment(identifier).identifier
    try:
        return _EXPERIMENT_GROUPS[key]
    except KeyError:
        raise KeyError(
            f"experiment {key} has no audit-target mapping; add it to "
            "repro.checks.targets._EXPERIMENT_GROUPS"
        ) from None


def targets_for_experiment(identifier: str) -> list[AuditTarget]:
    """All audit targets of one experiment, group-deduplicated."""
    targets: list[AuditTarget] = []
    for group in groups_for_experiment(identifier):
        targets.extend(build_group(group))
    return targets


def targets_for_all() -> list[AuditTarget]:
    """The union of the audit targets of every registered experiment.

    Groups shared between experiments are built and audited once.
    """
    names: list[str] = []
    for identifier in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
        for group in groups_for_experiment(identifier):
            if group not in names:
                names.append(group)
    targets: list[AuditTarget] = []
    for group in names:
        targets.extend(build_group(group))
    return targets
