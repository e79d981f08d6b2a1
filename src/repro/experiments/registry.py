"""The experiment registry: DESIGN.md §4's index, executable.

Maps experiment identifiers (``E1`` … ``E23``) to descriptors carrying the
paper artifact they regenerate and the reproduction function.  The CLI's
``repro experiment`` subcommand and the benchmark harness both resolve
through this table, so the index in the documentation can never drift from
what actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ExperimentError, ReproError
from repro.telemetry import span

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible evaluation artifact.

    Attributes
    ----------
    identifier:
        The DESIGN.md id, e.g. ``"E9"``.
    artifact:
        The paper artifact being regenerated (figure/claim/theorem).
    summary:
        One line describing the reproduced shape.
    runner:
        Zero-argument callable returning the experiment's data.
    """

    identifier: str
    artifact: str
    summary: str
    runner: Callable[[], Any]

    def run(self) -> Any:
        """Execute the reproduction and return its data."""
        return self.runner()


def _build_registry() -> dict[str, Experiment]:
    from repro.experiments import approximate as aa
    from repro.experiments import consensus as cons
    from repro.experiments import extensions as ext
    from repro.experiments import figures as figs
    from repro.experiments import operational as ops
    from repro.experiments import performance as perf
    from repro.experiments import robustness as rob
    from repro.experiments import speedup as sp

    entries = [
        Experiment(
            "E1", "Fig. 8",
            "one-round complexes: IIS ⊂ snapshot ⊂ collect (13/19/25 facets)",
            figs.reproduce_fig8,
        ),
        Experiment(
            "E2", "Figs. 1–3",
            "local tasks and closure membership on a worked ε-AA instance",
            cons.reproduce_closure_machinery,
        ),
        Experiment(
            "E3", "Corollary 1",
            "consensus is a fixed point of IIS ⟹ wait-free impossibility",
            cons.reproduce_corollary1,
        ),
        Experiment(
            "E4", "Fig. 4",
            "2-process consensus with test&set in one round",
            figs.reproduce_fig4,
        ),
        Experiment(
            "E5", "Fig. 5",
            "IIS+test&set one-round complex: 7 vertices per color",
            figs.reproduce_fig5,
        ),
        Experiment(
            "E6", "Corollary 2 + Fig. 6",
            "relaxed consensus is a fixed point of IIS+test&set (n=3)",
            cons.reproduce_corollary2,
        ),
        Experiment(
            "E7", "Claim 2",
            "CL_IIS(ε-AA) = 3ε-AA for two processes",
            aa.reproduce_claim2,
        ),
        Experiment(
            "E8", "Claim 3",
            "CL_IIS(liberal ε-AA) = liberal 2ε-AA for n ≥ 3",
            aa.reproduce_claim3,
        ),
        Experiment(
            "E9", "Corollary 3",
            "⌈log₃ 1/ε⌉ / ⌈log₂ 1/ε⌉ round bounds, tight",
            aa.reproduce_corollary3,
        ),
        Experiment(
            "E10", "Theorem 3 / Claim 4",
            "test&set does not accelerate ε-AA for n ≥ 3",
            aa.reproduce_theorem3,
        ),
        Experiment(
            "E11", "Fig. 7",
            "IIS+binary-consensus one-round complex",
            figs.reproduce_fig7,
        ),
        Experiment(
            "E12", "Theorem 4 / Claims 5–6",
            "β-closure halves participants; min(⌈log₂ 1/ε⌉, ⌈log₂ n⌉−1)",
            aa.reproduce_theorem4,
        ),
        Experiment(
            "E13", "Theorems 1–2",
            "the constructive speedup f ↦ f' on real algorithms",
            sp.reproduce_speedup,
        ),
        Experiment(
            "E14", "Claim 1",
            "zero-round (un)solvability of (liberal) ε-AA",
            aa.reproduce_claim1,
        ),
        Experiment(
            "E15", "upper bounds (§1.2, §5.3)",
            "all five algorithm families correct at the stated round counts",
            ops.reproduce_upper_bounds,
        ),
        Experiment(
            "E16", "Appendix A",
            "op-level interleavings land inside the matrix schedules",
            ops.reproduce_runtime_vs_matrices,
        ),
        Experiment(
            "E17", "Conclusion (extension)",
            "the closure engine on 2-set agreement",
            ext.reproduce_kset,
        ),
        Experiment(
            "E18", "ablation",
            "solvability-engine stages: AC + components vs plain search",
            perf.reproduce_solver_ablation,
        ),
        Experiment(
            "E19", "scaling",
            "Fubini growth, 13^t protocol growth, memoization",
            perf.reproduce_scaling,
        ),
        Experiment(
            "E20", "extension (affine models)",
            "k-concurrency: consensus landscape + halving robustness",
            ext.reproduce_affine_concurrency,
        ),
        Experiment(
            "E21", "extension (non-iterated model)",
            "stale reads break Eq. (3); phase filtering repairs it",
            ext.reproduce_noniterated,
        ),
        Experiment(
            "E22", "cache effectiveness",
            "one-round materializations saved by the model-level memo",
            perf.reproduce_cache_effectiveness,
        ),
        Experiment(
            "E23", "robustness (chaos harness)",
            "fault campaigns: clean cells stay clean, broken fixtures "
            "caught & shrunk, illegal faults detected",
            rob.reproduce_chaos_harness,
        ),
    ]
    return {entry.identifier: entry for entry in entries}


EXPERIMENTS: dict[str, Experiment] = _build_registry()


def get_experiment(identifier: str) -> Experiment:
    """Look up an experiment by id (case-insensitive)."""
    key = identifier.upper()
    try:
        return EXPERIMENTS[key]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS, key=lambda e: int(e[1:])))
        raise ReproError(
            f"unknown experiment {identifier!r}; known ids: {known}"
        ) from None


def run_experiment(identifier: str) -> Any:
    """Run an experiment by id and return its data.

    Any exception escaping the reproduction function is wrapped into an
    :class:`~repro.errors.ExperimentError` carrying the experiment id, so
    callers (the CLI, the benchmark harness) get a one-line diagnosable
    cause instead of a context-free traceback.
    """
    experiment = get_experiment(identifier)
    # The root span of a traced experiment run: everything the
    # reproduction touches (closure, solvability, protocol builds) nests
    # under it, so `repro trace summarize` attributes the whole run.
    with span(
        f"experiment/{experiment.identifier}",
        artifact=experiment.artifact,
    ):
        try:
            return experiment.run()
        except ExperimentError:
            raise
        except Exception as exc:
            raise ExperimentError(experiment.identifier, exc) from exc
