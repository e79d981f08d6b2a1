"""repro — the asynchronous speedup theorem, executable.

A reproduction of *"A Speedup Theorem for Asynchronous Computation with
Applications to Consensus and Approximate Agreement"* (Fraigniaud, Paz,
Rajsbaum, PODC 2022) as a production-quality Python library.

The package turns the paper's proof machinery into code:

* chromatic combinatorial topology (:mod:`repro.topology`);
* the iterated wait-free models — write-collect, write-snapshot, immediate
  snapshot — and their protocol complexes (:mod:`repro.models`);
* augmented models with consistent black boxes: test&set and binary
  consensus (:mod:`repro.objects`);
* the tasks: consensus variants and (liberal) ε-approximate agreement on an
  exact rational grid (:mod:`repro.tasks`);
* the core contribution: local tasks, task closures, a complete
  solvability decision procedure, the constructive speedup theorem, fixed
  points, and lower-bound engines (:mod:`repro.core`);
* an operational shared-memory runtime with adversarial schedulers and
  crash injection (:mod:`repro.runtime`);
* the matching upper-bound algorithms (:mod:`repro.algorithms`);
* census / figure / table utilities (:mod:`repro.analysis`).

Quick start::

    from repro import (
        ImmediateSnapshotModel, binary_consensus_task,
        impossibility_from_fixed_point,
    )

    report = impossibility_from_fixed_point(
        binary_consensus_task([1, 2, 3]), ImmediateSnapshotModel()
    )
    assert report.unsolvable          # FLP/Herlihy, via the speedup theorem
"""

from repro.errors import (
    ReproError,
    ChromaticityError,
    ScheduleError,
    TaskSpecificationError,
    SolvabilityError,
    ModelError,
    RuntimeModelError,
)
from repro.topology import (
    Vertex,
    View,
    Simplex,
    SimplicialComplex,
    CarrierMap,
)
from repro.models import (
    CollectModel,
    k_concurrency_model,
    no_synchrony_model,
    SnapshotModel,
    ImmediateSnapshotModel,
    AffineModel,
    ProtocolOperator,
    OneRoundSchedule,
    standard_chromatic_subdivision,
)
from repro.objects import (
    AugmentedModel,
    TestAndSetBox,
    BinaryConsensusBox,
    beta_input_function,
    majority_side,
)
from repro.tasks import (
    Task,
    binary_consensus_task,
    multivalued_consensus_task,
    relaxed_consensus_task,
    approximate_agreement_task,
    liberal_approximate_agreement_task,
    set_agreement_task,
    renaming_task,
    grid,
)
from repro.core import (
    DecisionMap,
    find_decision_map,
    is_solvable,
    local_task,
    ClosureComputer,
    speedup_decision_map,
    verify_speedup_theorem,
    impossibility_from_fixed_point,
    iterated_closure_lower_bound,
    ceil_log,
    aa_lower_bound_iis,
    aa_lower_bound_iis_tas,
    aa_lower_bound_iis_bc,
    aa_upper_bound_iis,
)
from repro.runtime import (
    IteratedExecutor,
    NonIteratedExecutor,
    RandomMatrixAdversary,
    ReplayAdversary,
    TraceRound,
    RoundAlgorithm,
    extract_decision_map,
    RandomAdversary,
    FullSyncAdversary,
    SoloFirstAdversary,
    all_schedule_sequences,
)
from repro.algorithms import (
    HalvingAA,
    NonIteratedHalvingAA,
    TwoProcessThirdsAA,
    TwoProcessConsensusTAS,
    ConsensusViaBinaryConsensus,
    BitwiseAA,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ChromaticityError",
    "ScheduleError",
    "TaskSpecificationError",
    "SolvabilityError",
    "ModelError",
    "RuntimeModelError",
    # topology
    "Vertex",
    "View",
    "Simplex",
    "SimplicialComplex",
    "CarrierMap",
    # models
    "CollectModel",
    "SnapshotModel",
    "ImmediateSnapshotModel",
    "AffineModel",
    "k_concurrency_model",
    "no_synchrony_model",
    "ProtocolOperator",
    "OneRoundSchedule",
    "standard_chromatic_subdivision",
    # objects
    "AugmentedModel",
    "TestAndSetBox",
    "BinaryConsensusBox",
    "beta_input_function",
    "majority_side",
    # tasks
    "Task",
    "binary_consensus_task",
    "multivalued_consensus_task",
    "relaxed_consensus_task",
    "approximate_agreement_task",
    "liberal_approximate_agreement_task",
    "set_agreement_task",
    "renaming_task",
    "grid",
    # core
    "DecisionMap",
    "find_decision_map",
    "is_solvable",
    "local_task",
    "ClosureComputer",
    "speedup_decision_map",
    "verify_speedup_theorem",
    "impossibility_from_fixed_point",
    "iterated_closure_lower_bound",
    "ceil_log",
    "aa_lower_bound_iis",
    "aa_lower_bound_iis_tas",
    "aa_lower_bound_iis_bc",
    "aa_upper_bound_iis",
    # runtime
    "IteratedExecutor",
    "NonIteratedExecutor",
    "RoundAlgorithm",
    "extract_decision_map",
    "RandomAdversary",
    "FullSyncAdversary",
    "SoloFirstAdversary",
    "RandomMatrixAdversary",
    "ReplayAdversary",
    "TraceRound",
    "all_schedule_sequences",
    # algorithms
    "HalvingAA",
    "NonIteratedHalvingAA",
    "TwoProcessThirdsAA",
    "TwoProcessConsensusTAS",
    "ConsensusViaBinaryConsensus",
    "BitwiseAA",
]
