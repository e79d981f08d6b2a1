"""Structural side conditions of the paper's objects, as plain helpers.

Each helper returns the witnesses that break one condition, so a test
asserts ``== []`` on a healthy object and shows the offenders when it
fails:

* :func:`name_leaks` — a carrier map preserves names: ``ID(Δ(σ)) ⊆ ID(σ)``;
* :func:`monotonicity_breaks` — ``σ' ⊆ σ ⟹ Δ(σ') ⊆ Δ(σ)``;
* :func:`outputs_outside` — a task's ``Δ(σ)`` lies inside ``O``;
* :func:`is_maximal` — a complex stores inclusion-maximal facets only,
  the promise ``SimplicialComplex.from_maximal`` takes on trust.
"""

from __future__ import annotations

from repro.topology import SimplicialComplex


def name_leaks(carrier):
    """The ``σ`` of the domain whose image uses a color outside ``ID(σ)``."""
    return [
        sigma for sigma in carrier.domain
        if not carrier(sigma).ids <= sigma.ids
    ]


def monotonicity_breaks(carrier):
    """The pairs ``(σ', σ)``, ``σ' ⊊ σ``, with ``Δ(σ') ⊄ Δ(σ)``."""
    return [
        (face, sigma)
        for sigma in carrier.domain
        for face in sigma.proper_faces()
        if not all(f in carrier(sigma) for f in carrier(face).facets)
    ]


def outputs_outside(task):
    """The ``σ`` of ``I`` whose legal outputs ``Δ(σ)`` leave ``O``."""
    return [
        sigma for sigma in task.input_complex
        if not all(f in task.output_complex for f in task.delta(sigma).facets)
    ]


def is_maximal(complex_):
    """``True`` iff no stored facet is a face of another stored facet."""
    return SimplicialComplex(complex_.facets) == complex_
