"""Inductive invariant generation by abstract interpretation.

The paper assumes "some external tool provides us with invariants" (§2.2)
— Aspic or Pagai in the authors' toolchain.  This package is the
reproduction's stand-in: a classic abstract-interpretation engine
(Cousot–Halbwachs), :class:`InvariantAnalyzer`, over convex polyhedra
(:class:`~repro.polyhedra.polyhedron.Polyhedron`), with widening up to
the guard thresholds at the cut points and one descending (narrowing)
pass.  The result is an :class:`InvariantMap` giving, at every control
location, a closed convex polyhedron that over-approximates the
reachable states — exactly the ``I_k`` of Definition 4.
"""

from repro.invariants.invariant_map import InvariantMap
from repro.invariants.analyzer import InvariantAnalyzer, compute_invariants

__all__ = [
    "InvariantMap",
    "InvariantAnalyzer",
    "compute_invariants",
]
