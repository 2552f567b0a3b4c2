"""Convex polyhedra over exact rationals.

The package provides both representations of closed convex polyhedra used
by the paper (Definition 1 and Definition 3):

* the *constraint* representation ``{x | A x ≤ b}`` (:class:`Polyhedron`),
* the *generator* representation (vertices, rays, lines), computed by the
  double-description method in :mod:`repro.polyhedra.dd`.  Each generator
  is one homogenised primitive integer row, as DD produces it: ``(c, w)``
  with ``w > 0`` for the vertex ``c / w`` and ``(d, 0)`` for a ray or line
  ``d`` (:class:`GeneratorSystem`).

On top of those sit Fourier–Motzkin projection, convex hull of unions,
inclusion/emptiness tests and the standard widening — everything the
polyhedral invariant generator (our Aspic/Pagai substitute) and the eager
Ben-Amram & Genaim baseline need.
"""

from repro.polyhedra.polyhedron import Polyhedron
from repro.polyhedra.generators import GeneratorSystem
from repro.polyhedra.dd import (
    cone_double_description,
    constraints_to_generators,
    generators_to_constraints,
)
from repro.polyhedra.projection import fourier_motzkin, project_constraints

__all__ = [
    "Polyhedron",
    "GeneratorSystem",
    "cone_double_description",
    "constraints_to_generators",
    "generators_to_constraints",
    "fourier_motzkin",
    "project_constraints",
]
