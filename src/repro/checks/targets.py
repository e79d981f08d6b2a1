"""Audit targets: the live objects ``repro check`` inspects.

The audit covers every model family, every task family and the closure
machinery through named *target groups*; a group builds its live objects
once (memoized process-wide) and wraps them into
:class:`~repro.checks.rules.AuditTarget` records for the rule engine.
``repro check --all`` audits every group.  The construction stays
deliberately small (n ≤ 3, coarse grids) so the full audit runs in
seconds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from repro.checks.rules import AuditTarget
from repro.core.closure import ClosureComputer
from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
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
    operator = ProtocolOperator(model)
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
                    lambda face: operator.of_simplex(face, 1),
                    name=f"Ξ[{model.name}]",
                ),
                {"expect_monotone": True},
            )
        )
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
    "tasks-consensus": _group_consensus_tasks,
    "tasks-aa": _group_aa_tasks,
    "tasks-kset": _group_kset_task,
    "closure-consensus": _group_closure_consensus,
    "closure-aa": _group_closure_aa,
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


def targets_for_all() -> list[AuditTarget]:
    """The audit targets of every group, in :data:`TARGET_GROUPS` order."""
    return [
        target for name in TARGET_GROUPS for target in build_group(name)
    ]
