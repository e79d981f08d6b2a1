"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so user
code can catch library failures with a single ``except`` clause while still
being able to distinguish the failure modes that matter (malformed chromatic
data, non-simplicial maps, invalid schedules, ill-specified tasks).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ChromaticityError",
    "SimplicialityError",
    "ScheduleError",
    "TaskSpecificationError",
    "SolvabilityError",
    "ModelError",
    "RuntimeModelError",
    "FaultInjectionError",
    "ExecutionBudgetExceeded",
    "ExperimentError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ChromaticityError(ReproError, ValueError):
    """A chromatic object (simplex, complex, map) violates color constraints.

    Chromatic complexes require every simplex to carry pairwise-distinct
    colors, and chromatic maps must preserve the color of every vertex.
    """


class SimplicialityError(ReproError, ValueError):
    """A vertex map fails to send some simplex onto a simplex of the target."""


class ScheduleError(ReproError, ValueError):
    """A one-round schedule violates the matrix conditions of Appendix A.3.4.

    Collect schedules must satisfy the five matrix conditions; snapshot
    schedules additionally require the view sets to form a chain; immediate
    snapshot schedules must be ordered partitions.
    """


class TaskSpecificationError(ReproError, ValueError):
    """A task triple ``(I, O, Δ)`` is malformed.

    Typical causes: ``Δ(σ)`` contains simplices whose ID set differs from
    ``ID(σ)``, or output simplices that are not part of the output complex.
    """


class SolvabilityError(ReproError, RuntimeError):
    """The solvability engine was invoked with inconsistent arguments."""


class ModelError(ReproError, ValueError):
    """A computational model is queried outside its domain of definition."""


class RuntimeModelError(ReproError, RuntimeError):
    """The operational runtime simulator reached an inconsistent state."""


class FaultInjectionError(RuntimeModelError):
    """The executor detected an *illegal* fault (a safety-net firing).

    Raised when shared-memory or black-box behavior falls outside the
    model: a lost register write, a snapshot inconsistent with the realized
    schedule, a black-box output assignment that is not admissible, or a
    non-linearizable object response.  The fault-injection harness
    (:mod:`repro.faults`) deliberately provokes these to prove the runtime
    flags them instead of silently absorbing them.
    """


class ExecutionBudgetExceeded(ReproError, RuntimeError):
    """A single execution exceeded its step budget or wall-clock deadline.

    The chaos campaign runner (:mod:`repro.faults.campaign`) wraps each
    algorithm with a budget guard so a non-terminating or pathologically
    slow execution is classified as ``HUNG`` instead of stalling the whole
    campaign.
    """


class ExperimentError(ReproError, RuntimeError):
    """An experiment runner failed; carries the experiment identifier.

    Wraps arbitrary exceptions escaping a registered ``reproduce_*``
    function so ``repro experiment E<k>`` failures are diagnosable from a
    one-line cause instead of a raw traceback.
    """

    def __init__(self, experiment_id: str, cause: BaseException) -> None:
        self.experiment_id = experiment_id
        self.cause = cause
        super().__init__(
            f"experiment {experiment_id} failed: "
            f"{type(cause).__name__}: {cause}"
        )


class TelemetryError(ReproError, RuntimeError):
    """The tracing layer was driven through an invalid state transition.

    Raised on unbalanced span exits (closing a span that is not the
    innermost open one) and on malformed trace artifacts handed to the
    exporters — both indicate a harness bug, never a property of the
    computation being traced.
    """

