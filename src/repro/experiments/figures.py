"""Experiments E1, E4, E5, E11 — the paper's structural figures.

Each figure is a combinatorial object, rebuilt from the library's models
so that tests and benchmarks can assert the drawn structure exactly:

* Fig. 8 (E1) — the census and strict inclusions of the collect /
  snapshot / immediate-snapshot one-round complexes;
* Fig. 4 (E4) — the 1-round IIS+test&set complex for two processes and a
  simplicial decision map solving binary consensus on it;
* Fig. 5 (E5) — the 1-round IIS+test&set complex for three processes (7
  vertices per color: every subdivision vertex duplicated per outcome
  except solo vertices, which always win);
* Fig. 7 (E11) — the 1-round IIS+binary-consensus complex: two decorated
  copies of the chromatic subdivision minus the assignments invalid for
  the call bits.

Fig. 6's simplices belong to Corollary 2 and live next to E6 in
:mod:`repro.experiments.consensus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.algorithms import TwoProcessConsensusTAS
from repro.core.solvability import find_decision_map
from repro.models import CollectModel, ImmediateSnapshotModel, SnapshotModel
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.runtime import (
    IteratedExecutor,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
)
from repro.tasks import binary_consensus_task
from repro.topology import Simplex, SimplicialComplex, Vertex, View

__all__ = [
    "ComplexCensus",
    "per_color_census",
    "reproduce_fig4",
    "reproduce_fig5",
    "reproduce_fig7",
    "reproduce_fig8",
]


@dataclass(frozen=True)
class ComplexCensus:
    """Summary statistics of a complex."""

    facets: int
    vertices: int
    f_vector: tuple[int, ...]
    euler_characteristic: int
    dim: int
    pure: bool

    @classmethod
    def of(cls, complex_: SimplicialComplex) -> "ComplexCensus":
        """Compute the census of a complex."""
        return cls(
            facets=len(complex_.facets),
            vertices=len(complex_.vertices),
            f_vector=complex_.f_vector(),
            euler_characteristic=complex_.euler_characteristic(),
            dim=complex_.dim,
            pure=complex_.is_pure(),
        )


def per_color_census(complex_: SimplicialComplex) -> dict[int, int]:
    """Vertex count per color — Fig. 5's "seven vertices with the same ID"."""
    counts: dict[int, int] = {}
    for vertex in complex_.vertices:
        counts[vertex.color] = counts.get(vertex.color, 0) + 1
    return dict(sorted(counts.items()))


def reproduce_fig8() -> dict[str, object]:
    """E1 — Fig. 8: census and strict hierarchy of the three models."""
    base = SimplicialComplex.from_simplex(Simplex([(1, 1), (2, 2), (3, 3)]))
    iis = ImmediateSnapshotModel().protocol_complex(base)
    snapshot = SnapshotModel().protocol_complex(base)
    collect = CollectModel().protocol_complex(base)
    return {
        "immediate_snapshot": ComplexCensus.of(iis),
        "snapshot": ComplexCensus.of(snapshot),
        "collect": ComplexCensus.of(collect),
        "iis_strictly_inside_snapshot": iis.simplices < snapshot.simplices,
        "snapshot_strictly_inside_collect": (
            snapshot.simplices < collect.simplices
        ),
        "snapshot_only_facets": len(snapshot.facets - iis.facets),
        "collect_only_facets": len(collect.facets - snapshot.facets),
    }


def reproduce_fig4() -> dict[str, object]:
    """E4 — Fig. 4: 2-process consensus with test&set, combinatorially
    (a simplicial decision map exists) and operationally (the algorithm is
    correct on every input × schedule × box behavior)."""
    model = AugmentedModel(TestAndSetBox())
    task = binary_consensus_task([1, 2])
    decision = find_decision_map(task, model, rounds=1)
    protocol = model.protocol_complex(task.input_complex)

    executor = IteratedExecutor(box=TestAndSetBox())
    runs = correct = 0
    for inputs in ({1: 0, 2: 1}, {1: 1, 2: 0}, {1: 0, 2: 0}, {1: 1, 2: 1}):
        for (blocks,) in all_schedule_sequences([1, 2], 1):
            for option in range(2):
                entry = TraceRound(
                    blocks=tuple(map(tuple, blocks)), box_choice=option
                )
                result = executor.run(
                    TwoProcessConsensusTAS(), inputs, ReplayAdversary([entry])
                )
                runs += 1
                values = set(result.decisions.values())
                if len(values) == 1 and values <= set(inputs.values()):
                    correct += 1
    return {
        "map_found": decision is not None,
        "protocol_vertices": len(protocol.vertices),
        "runs": runs,
        "correct": correct,
    }


def reproduce_fig5() -> dict[str, object]:
    """E5 — Fig. 5: the IIS+test&set one-round complex for three processes.

    Returns the complex together with the census the figure displays:
    vertices per color (7 each), solo views always carrying outcome 1, and
    non-solo views duplicated across outcomes 0 and 1.
    """
    sigma = Simplex([(1, "x1"), (2, "x2"), (3, "x3")])
    model = AugmentedModel(TestAndSetBox())
    complex_ = model.protocol_complex(SimplicialComplex.from_simplex(sigma))
    full_participation = model.one_round_complex(sigma)
    solo_outcomes = {
        vertex.color: vertex.value[0]
        for vertex in complex_.vertices
        if len(vertex.value[1]) == 1
    }
    duplicated = {}
    for color in sorted(sigma.ids):
        non_solo_views = {
            vertex.value[1]
            for vertex in complex_.vertices
            if vertex.color == color and len(vertex.value[1]) > 1
        }
        duplicated[color] = all(
            Vertex(color, (bit, view)) in complex_.vertices
            for view in non_solo_views
            for bit in (0, 1)
        )
    return {
        "complex": complex_,
        "full_participation_facets": len(full_participation.facets),
        "per_color": per_color_census(complex_),
        "solo_outcomes": solo_outcomes,
        "non_solo_views_duplicated": duplicated,
    }


def reproduce_fig7() -> dict[str, object]:
    """E11 — Fig. 7: the IIS+binary-consensus one-round complex, with the
    figure's call bits (black calls 0, the others 1) and the uniform-call
    contrast."""
    return {
        "mixed": _fig7_complex({1: 0, 2: 1, 3: 1}),
        "uniform": _fig7_complex({1: 1, 2: 1, 3: 1}),
    }


def _fig7_complex(call_bits: Mapping[int, int]) -> dict[str, object]:
    """The complex for one choice of call bits, and the structural facts
    the figure shows: which solo vertices are removed and that the complex
    splits into (sub)copies indexed by the agreed bit."""
    beta = dict(call_bits)
    inputs = {i: f"x{i}" for i in beta}
    sigma = Simplex(inputs.items())
    model = AugmentedModel(BinaryConsensusBox(), beta_input_function(beta))
    complex_ = model.protocol_complex(SimplicialComplex.from_simplex(sigma))
    removed_solo = {}
    for process, bit in beta.items():
        opposite = 1 - bit
        solo_view = View([(process, inputs[process])])
        removed_solo[process] = (
            Vertex(process, (opposite, solo_view)) not in complex_.vertices
        )
    per_bit_facets = {
        bit: sum(
            1
            for facet in complex_.facets
            if facet.vertices[0].value[0] == bit
        )
        for bit in (0, 1)
    }
    return {
        "complex": complex_,
        "call_bits": beta,
        "opposite_solo_removed": removed_solo,
        "facets_per_agreed_bit": per_bit_facets,
    }
