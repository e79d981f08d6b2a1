"""BENCH (bitmask core) — facet pruning and containment, masks vs objects.

The bitmask-native topology core claims that the two operations
dominating protocol-complex assembly — inclusion-maximality pruning and
face-membership tests — are integer sweeps instead of object-set
algebra.  This harness times both against the retained seed
implementations (:mod:`repro.topology.reference`) on a real ``13^t``
IIS protocol complex and asserts the acceptance bar of the bitmask-core
PR: **at least 3× on each**.

* *pruning*: the candidate family is every facet of ``P^(t)(σ)`` plus
  every proper face — the merge-heavy shape ``Ξ`` produces each round.
  Mask side prunes encoded masks (the pass behind the
  ``SimplicialComplex`` constructor and ``proj``); reference side runs
  the seed frozenset-bucket pass over the same simplices.
* *containment*: each repeat starts from a fresh facet family, builds
  the face index (submask walk vs eager face materialization) and
  answers a fixed probe batch.

Both sides are timed interleaved and the per-side minimum over repeats
is kept, so clock drift hits them equally.  The complex has
``ROUNDS = 2`` rounds (169 facets); the measured ratios are printed.
"""

from __future__ import annotations

import time

from repro.models import ImmediateSnapshotModel
from repro.models.protocol import ProtocolOperator
from repro.topology import Simplex, SimplicialComplex
from repro.topology import reference
from repro.topology.complex import _prune_masks

ROUNDS = 2

#: The acceptance bar from the bitmask-core PR.
MIN_SPEEDUP = 3.0

#: Interleaved timing repeats; the minimum per side is kept.
REPEATS = 7

#: Membership probes per containment repeat — few enough that the face
#: *index build* (the part the bitmask core accelerates) stays the
#: dominant cost, as it is in the closure/solvability sweeps.
PROBES = 32


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


def test_bitmask_core_speedup():
    protocol = ProtocolOperator(ImmediateSnapshotModel()).of_simplex(
        _triangle(), ROUNDS
    )
    facets = protocol.sorted_facets()
    candidates = sorted(
        {face for facet in facets for face in facet.faces()},
        key=lambda s: s._sort_key(),
    )
    table, _ = protocol._ensure_index()
    masks = [table.encode_mask(simplex) for simplex in candidates]

    # -- facet pruning: mask sweep vs the seed frozenset-bucket pass ----
    prune_mask_s, prune_ref_s = _interleaved_min(
        lambda: _prune_masks(masks),
        lambda: reference.prune_reference(candidates),
    )
    assert set(
        table.decode_mask_trusted(m) for m in _prune_masks(masks)
    ) == reference.prune_reference(candidates)

    # -- containment: fresh face index + probe batch per repeat --------
    probes = [
        next(iter(facet.faces(include_self=False)))
        for facet in facets[:PROBES]
    ]

    def contain_masks():
        fresh = SimplicialComplex.from_maximal(facets)
        return sum(probe in fresh for probe in probes)

    def contain_reference():
        faces = reference.faces_reference(facets)
        return sum(probe in faces for probe in probes)

    assert contain_masks() == contain_reference() == len(probes)
    contain_mask_s, contain_ref_s = _interleaved_min(
        contain_masks, contain_reference
    )

    prune_speedup = prune_ref_s / prune_mask_s
    contain_speedup = contain_ref_s / contain_mask_s
    assert prune_speedup >= MIN_SPEEDUP, (
        f"facet pruning only {prune_speedup:.2f}x over the object-set "
        f"reference ({prune_mask_s * 1e3:.2f} ms vs "
        f"{prune_ref_s * 1e3:.2f} ms)"
    )
    assert contain_speedup >= MIN_SPEEDUP, (
        f"containment only {contain_speedup:.2f}x over the object-set "
        f"reference ({contain_mask_s * 1e3:.2f} ms vs "
        f"{contain_ref_s * 1e3:.2f} ms)"
    )

    print(
        f"\n{len(facets)} facets, {len(candidates)} candidates: "
        f"pruning {prune_speedup:.1f}x, containment {contain_speedup:.1f}x"
    )
