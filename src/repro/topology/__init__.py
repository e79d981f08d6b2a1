"""Chromatic combinatorial topology substrate.

This subpackage implements the topological language of the paper
(Appendix A.1): chromatic simplicial complexes, carrier maps, and
connectivity analysis of 1-skeletons.  The canonical isomorphism χ
between one-round complexes (Eq. (1)) is not here: it is the input
relabelling of a protocol template (:mod:`repro.models.protocol`).

Everything here is plain combinatorics over immutable value objects: a
*vertex* is a pair ``(color, value)``, a *simplex* is a set of vertices with
pairwise distinct colors, and a *complex* is a downward-closed family of
simplices represented by its facets.
"""

from repro.topology.vertex import Vertex, value_sort_key
from repro.topology.views import View
from repro.topology.simplex import Simplex
from repro.topology.complex import SimplicialComplex
from repro.topology.carrier import CarrierMap
from repro.topology.structure import (
    boundary_complex,
    is_pseudomanifold,
    ridge_incidence,
)
from repro.topology.connectivity import (
    connected_components,
    is_connected,
)
from repro.topology.table import (
    VertexTable,
    iter_bits,
    iter_submasks,
    popcount,
)

__all__ = [
    "Vertex",
    "View",
    "Simplex",
    "SimplicialComplex",
    "CarrierMap",
    "connected_components",
    "is_connected",
    "value_sort_key",
    "boundary_complex",
    "is_pseudomanifold",
    "ridge_incidence",
    "VertexTable",
    "iter_bits",
    "iter_submasks",
    "popcount",
]
