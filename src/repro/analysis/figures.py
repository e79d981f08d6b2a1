"""Reconstruction of the paper's figures as data.

The paper's figures are combinatorial objects; each function here rebuilds
one of them from the library's models so that tests and benchmarks can
assert the drawn structure exactly:

* Fig. 4 — the 1-round IIS+test&set complex for two processes and a
  simplicial decision map solving binary consensus on it;
* Fig. 5 — the 1-round IIS+test&set complex for three processes (7 vertices
  per color: every subdivision vertex duplicated per outcome except solo
  vertices, which always win);
* Fig. 6 — the two simplices ``ρ_{i,j,k}`` and ``ρ_{j,i,k}`` used in the
  proof of Corollary 2;
* Fig. 7 — the 1-round IIS+binary-consensus complex: two decorated copies
  of the chromatic subdivision minus the assignments invalid for the call
  bits;
* Fig. 8 — the census and strict inclusions of the collect / snapshot /
  immediate-snapshot one-round complexes.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional

from repro.analysis.counting import ComplexCensus, per_color_census
from repro.core.solvability import DecisionMap, find_decision_map
from repro.models.collect import CollectModel
from repro.models.immediate import ImmediateSnapshotModel
from repro.models.snapshot import SnapshotModel
from repro.objects.augmented import AugmentedModel
from repro.objects.beta import beta_input_function
from repro.objects.binary_consensus import BinaryConsensusBox
from repro.objects.test_and_set import TestAndSetBox
from repro.tasks.consensus import binary_consensus_task
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex
from repro.topology.views import View

__all__ = [
    "figure4_complex_and_map",
    "figure5_complex",
    "figure6_simplices",
    "figure7_complex",
    "figure8_census",
]


def figure4_complex_and_map() -> tuple[SimplicialComplex, Optional[DecisionMap]]:
    """Fig. 4: 2-process binary consensus is 1-round solvable with test&set.

    Returns the 1-round protocol complex over the binary input complex and a
    decision map found by the solvability engine (``None`` would falsify the
    figure).
    """
    model = AugmentedModel(TestAndSetBox())
    task = binary_consensus_task([1, 2])
    decision = find_decision_map(task, model, rounds=1)
    base = task.input_complex
    protocol = model.protocol_complex(base)
    return protocol, decision


def figure5_complex(
    values: Optional[Mapping[int, Hashable]] = None,
) -> dict[str, object]:
    """Fig. 5: the 1-round IIS+test&set complex for three processes.

    Returns the complex together with the census the figure displays:
    vertices per color (7 each), solo views always carrying outcome 1, and
    non-solo views duplicated across outcomes 0 and 1.
    """
    inputs = dict(values or {1: "x1", 2: "x2", 3: "x3"})
    sigma = Simplex(inputs.items())
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


def figure6_simplices(
    tau_values: Mapping[int, Hashable],
    i: int,
    j: int,
    k: int,
) -> tuple[Simplex, Simplex]:
    """Fig. 6: the simplices ``ρ_{i,j,k}`` and ``ρ_{j,i,k}`` of Corollary 2.

    ``ρ_{i,j,k}``: process ``i`` runs solo first (winning test&set), then
    ``j`` (seeing ``{i, j}``), then ``k`` (seeing everything), with ``j``
    and ``k`` losing the object.
    """
    y = dict(tau_values)

    def vertex(process: int, bit: int, seen: tuple[int, ...]) -> Vertex:
        return Vertex(process, (bit, View((s, y[s]) for s in seen)))

    rho_ijk = Simplex(
        [
            vertex(i, 1, (i,)),
            vertex(j, 0, (i, j)),
            vertex(k, 0, (i, j, k)),
        ]
    )
    rho_jik = Simplex(
        [
            vertex(j, 1, (j,)),
            vertex(i, 0, (i, j)),
            vertex(k, 0, (i, j, k)),
        ]
    )
    return rho_ijk, rho_jik


def figure7_complex(
    call_bits: Optional[Mapping[int, int]] = None,
    values: Optional[Mapping[int, Hashable]] = None,
) -> dict[str, object]:
    """Fig. 7: the 1-round IIS+binary-consensus complex for three processes.

    Default call bits follow the figure: the "black" process (ID 1) calls
    the object with 0, the other two with 1.  Returns the complex and the
    structural facts the figure shows: which solo vertices are removed and
    that the complex splits into (sub)copies indexed by the agreed bit.
    """
    beta = dict(call_bits or {1: 0, 2: 1, 3: 1})
    inputs = dict(values or {i: f"x{i}" for i in beta})
    sigma = Simplex(inputs.items())
    model = AugmentedModel(
        BinaryConsensusBox(), beta_input_function(beta)
    )
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


def figure8_census(
    values: Optional[Mapping[int, Hashable]] = None,
) -> dict[str, object]:
    """Fig. 8: one-round complexes of the three register models, compared."""
    inputs = dict(values or {1: 1, 2: 2, 3: 3})
    sigma = Simplex(inputs.items())
    base = SimplicialComplex.from_simplex(sigma)
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
