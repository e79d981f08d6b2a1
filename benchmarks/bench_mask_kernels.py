"""BENCH (mask kernels) — connectivity, structure and solvability probes.

The mask-sweep kernel engine claims the graph-flavored complex
algorithms — 1-skeleton connectivity, ridge-incidence structure, and
the solvability engine's partial-image consistency test — are batch
integer sweeps instead of object-set traversals.  This harness times
each against the retained seed implementations
(:mod:`repro.topology.reference` and the frozenset membership test the
solvability engine used before the kernels) on a real ``13^t`` IIS
protocol complex and asserts the acceptance bar of the mask-kernel PR:
**at least 3× on each**.

* *connectivity*: vertex adjacency plus connected components.  Mask
  side is :func:`~repro.topology.kernels.vertex_adjacency` +
  :func:`~repro.topology.kernels.mask_components`; reference side is
  the seed nested-loop adjacency + object BFS.
* *structure*: the pseudomanifold test plus the boundary complex.
  Mask side runs the shipped :func:`is_pseudomanifold` /
  :func:`boundary_complex` (ridge tables via bit-clear iteration);
  reference side materializes faces per the seed algorithms.
* *solvability probe*: the CSP inner loop — every prefix of every
  facet's vertex tuple tested for membership in every constraint's
  allowed family.  Mask side ORs bits and looks up an ``int`` set;
  reference side builds a ``frozenset`` per prefix, exactly as the
  pre-kernel ``consistent()`` did.

Both sides of each pair are timed interleaved and the per-side minimum
over repeats is kept, so clock drift hits them equally.  The complex
has ``ROUNDS = 2`` rounds (169 facets); the measured ratios are
printed.  The speedup assertions are gated on a multi-core host:
single-core CI containers time sub-millisecond sweeps too noisily to
enforce a ratio.
"""

from __future__ import annotations

import os
import time

from repro.models import ImmediateSnapshotModel
from repro.models.protocol import ProtocolOperator
from repro.topology import Simplex, reference
from repro.topology.connectivity import (
    connected_components,
    one_skeleton_adjacency,
)
from repro.topology.kernels import mask_components, vertex_adjacency
from repro.topology.structure import boundary_complex, is_pseudomanifold
from repro.topology.table import iter_submasks, popcount

ROUNDS = 2

#: The acceptance bar from the mask-kernel PR.
MIN_SPEEDUP = 3.0

#: Interleaved timing repeats; the minimum per side is kept.
REPEATS = 7

#: Inner sweeps per timed repeat — the connectivity and structure
#: kernels finish a 169-facet complex in well under a millisecond, so
#: each side runs the whole workload this many times per measurement
#: to stay clear of timer resolution.  Identical on both sides, so the
#: multiplier cancels out of the ratio.
SWEEPS = 8


def _triangle() -> Simplex:
    return Simplex((i, f"x{i}") for i in range(1, 4))


def _interleaved_min(fast, slow) -> tuple[float, float]:
    """Best-of-``REPEATS`` wall time for both thunks, interleaved."""
    best_fast = best_slow = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fast()
        best_fast = min(best_fast, time.perf_counter() - start)
        start = time.perf_counter()
        slow()
        best_slow = min(best_slow, time.perf_counter() - start)
    return best_fast, best_slow


def test_mask_kernel_speedup():
    protocol = ProtocolOperator(ImmediateSnapshotModel()).of_simplex(
        _triangle(), ROUNDS
    )
    facets = protocol.sorted_facets()
    table, masks = protocol._ensure_index()
    size = len(table)

    # -- parity first: the shipped mask-native paths equal the oracles
    assert one_skeleton_adjacency(
        protocol
    ) == reference.adjacency_reference(facets)
    assert connected_components(
        protocol
    ) == reference.components_reference(facets)
    assert is_pseudomanifold(
        protocol
    ) == reference.is_pseudomanifold_reference(facets)
    assert boundary_complex(
        protocol
    ).facets == reference.boundary_reference(facets)

    # -- connectivity: adjacency + components, masks vs object sets ----
    def connectivity_masks():
        for _ in range(SWEEPS):
            vertex_adjacency(masks, size)
            mask_components(masks, size)

    def connectivity_reference():
        for _ in range(SWEEPS):
            reference.adjacency_reference(facets)
            reference.components_reference(facets)

    conn_mask_s, conn_ref_s = _interleaved_min(
        connectivity_masks, connectivity_reference
    )

    # -- structure: pseudomanifold + boundary, shipped vs seed ---------
    def structure_masks():
        for _ in range(SWEEPS):
            is_pseudomanifold(protocol)
            boundary_complex(protocol)

    def structure_reference():
        for _ in range(SWEEPS):
            reference.is_pseudomanifold_reference(facets)
            reference.boundary_reference(facets)

    struct_mask_s, struct_ref_s = _interleaved_min(
        structure_masks, structure_reference
    )

    # -- solvability probe: the CSP consistency inner loop -------------
    # Every ≥2-vertex prefix of every facet, tested against every
    # constraint's allowed family (that facet's ≥2-vertex faces).
    probe_vertices = [facet.vertices for facet in facets]
    probe_bits = [
        tuple(1 << table.index_of(v) for v in vertices)
        for vertices in probe_vertices
    ]
    allowed_masks = [
        {sub for sub in iter_submasks(mask) if popcount(sub) >= 2}
        for mask in masks
    ]
    allowed_faces = [
        {
            frozenset(face.vertices)
            for face in facet.faces()
            if face.dim >= 1
        }
        for facet in facets
    ]

    def solvability_masks() -> int:
        hits = 0
        for allowed in allowed_masks:
            for bits in probe_bits:
                acc = bits[0]
                for bit in bits[1:]:
                    acc |= bit
                    if acc in allowed:
                        hits += 1
        return hits

    def solvability_reference() -> int:
        hits = 0
        for allowed in allowed_faces:
            for vertices in probe_vertices:
                for count in range(2, len(vertices) + 1):
                    if frozenset(vertices[:count]) in allowed:
                        hits += 1
        return hits

    assert solvability_masks() == solvability_reference()
    solv_mask_s, solv_ref_s = _interleaved_min(
        solvability_masks, solvability_reference
    )

    conn_speedup = conn_ref_s / conn_mask_s
    struct_speedup = struct_ref_s / struct_mask_s
    solv_speedup = solv_ref_s / solv_mask_s
    cores = os.cpu_count() or 1
    if cores >= 2:
        assert conn_speedup >= MIN_SPEEDUP, (
            f"connectivity only {conn_speedup:.2f}x over the object-set "
            f"reference ({conn_mask_s * 1e3:.2f} ms vs "
            f"{conn_ref_s * 1e3:.2f} ms)"
        )
        assert struct_speedup >= MIN_SPEEDUP, (
            f"structure only {struct_speedup:.2f}x over the object-set "
            f"reference ({struct_mask_s * 1e3:.2f} ms vs "
            f"{struct_ref_s * 1e3:.2f} ms)"
        )
        assert solv_speedup >= MIN_SPEEDUP, (
            f"solvability probe only {solv_speedup:.2f}x over the "
            f"frozenset reference ({solv_mask_s * 1e3:.2f} ms vs "
            f"{solv_ref_s * 1e3:.2f} ms)"
        )

    print(
        f"\n{len(facets)} facets: connectivity {conn_speedup:.1f}x, "
        f"structure {struct_speedup:.1f}x, "
        f"solvability probe {solv_speedup:.1f}x"
    )
