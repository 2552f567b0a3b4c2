"""The convex-polyhedra abstract domain (Cousot & Halbwachs 1978).

Abstract values are :class:`~repro.polyhedra.polyhedron.Polyhedron`
objects over the program variables.  This is the domain the paper's
toolchain obtains from Aspic/Pagai and the only one of the reproduction.
Operations are value-oriented: they return new polyhedra, never mutate.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.polyhedra.polyhedron import Polyhedron


class PolyhedraDomain:
    """Closed convex polyhedra with the standard widening."""

    def __init__(
        self,
        variables: Sequence[str],
        integer_variables=None,
        thresholds: Sequence[Constraint] = (),
    ):
        self.variables = list(variables)
        self.integer_variables = set(
            integer_variables if integer_variables is not None else variables
        )
        # "Widening up to" (Halbwachs): candidate constraints — typically the
        # guards of the program — that are re-added after the standard
        # widening whenever the new iterate still satisfies them.  This is
        # the trick Aspic/Pagai use to keep loop bounds such as ``i ≤ 4``.
        self.thresholds: List[Constraint] = [
            threshold.weaken() for threshold in thresholds
        ]

    # -- lattice -----------------------------------------------------------------

    def top(self) -> Polyhedron:
        return Polyhedron.universe(self.variables)

    def bottom(self) -> Polyhedron:
        return Polyhedron.empty(self.variables)

    def is_bottom(self, value: Polyhedron) -> bool:
        return value.is_empty()

    def join(self, left: Polyhedron, right: Polyhedron) -> Polyhedron:
        return left.join(right)

    def widen(self, previous: Polyhedron, current: Polyhedron) -> Polyhedron:
        joined = previous.join(current)
        widened = previous.widen(joined)
        if not self.thresholds:
            return widened
        kept = [
            threshold
            for threshold in self.thresholds
            if joined.entails_constraint(threshold)
            and not widened.entails_constraint(threshold)
        ]
        if not kept:
            return widened
        return widened.intersect_constraints(kept)

    def includes(self, bigger: Polyhedron, smaller: Polyhedron) -> bool:
        return bigger.includes(smaller)

    # -- transfer functions ----------------------------------------------------------

    def constrain(
        self, value: Polyhedron, constraints: Sequence[Constraint]
    ) -> Polyhedron:
        prepared: List[Constraint] = []
        for constraint in constraints:
            if constraint.is_strict():
                # Integer programs: x > c becomes x ≥ c + 1; otherwise take
                # the topological closure, which is a sound over-approximation.
                if constraint.variables() <= self.integer_variables:
                    prepared.append(constraint.tighten_for_integers().weaken())
                else:
                    prepared.append(constraint.weaken())
            else:
                prepared.append(constraint)
        return value.intersect_constraints(prepared)

    def assign(
        self, value: Polyhedron, variable: str, expression: LinExpr
    ) -> Polyhedron:
        return value.assign(variable, expression)

    def havoc(self, value: Polyhedron, variable: str) -> Polyhedron:
        return value.havoc(variable)

    def narrow(self, previous: Polyhedron, current: Polyhedron) -> Polyhedron:
        # Descending iteration: the new value is always sound; guard against
        # accidental loss of the fixpoint property by keeping the meet.
        return previous.intersect(current)
