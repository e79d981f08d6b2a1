"""Census utilities for protocol complexes.

These compute the combinatorial data the paper's figures display: facet
counts, f-vectors and per-color vertex counts (Fig. 8's census of
``IIS ⊂ snapshot ⊂ collect`` has facet counts 13 / 19 / 25 for ``n = 3``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.complex import SimplicialComplex

__all__ = ["ComplexCensus", "per_color_census"]


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
