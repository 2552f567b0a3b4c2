"""Ranking functions.

An :class:`AffineRankingFunction` is one lexicographic component: for every
cut point ``k`` an affine map ``ρ(k, x) = λ_k · x + λ0_k`` (Definition 6 of
the paper, with the function allowed to depend on the control point).  A
:class:`LexicographicRankingFunction` is a tuple of such components ordered
by decreasing significance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.linalg.vector import Vector
from repro.linexpr.expr import LinExpr


@dataclass
class AffineRankingFunction:
    """One component ``ρ(k, x) = λ_k · x + λ0_k`` over a fixed cut-set."""

    variables: Tuple[str, ...]
    coefficients: Dict[str, Vector]      # cut point -> λ_k
    offsets: Dict[str, Fraction]         # cut point -> λ0_k
    strict: bool = False                 # does it decrease on every transition?

    def expression(self, location: str) -> LinExpr:
        """``ρ(location, ·)`` as a linear expression over the program variables."""
        lam = self.coefficients[location]
        terms = {name: lam[i] for i, name in enumerate(self.variables)}
        return LinExpr(terms, self.offsets[location])

    def evaluate(self, location: str, state: Mapping[str, Fraction]) -> Fraction:
        return self.expression(location).evaluate(state)

    def is_trivial(self) -> bool:
        """True when every coefficient vector is zero."""
        return all(vector.is_zero() for vector in self.coefficients.values())

    def stacked_vector(self, locations: Sequence[str]) -> Vector:
        """The concatenated λ (Definition 13) in the given cut-point order.

        Each per-location block carries the variable coefficients followed
        by the affine offset (the coefficient of the constant-one
        coordinate of the homogenised encoding).
        """
        stacked: List[Fraction] = []
        for location in locations:
            stacked.extend(self.coefficients[location])
            stacked.append(self.offsets[location])
        return Vector(stacked)

    def pretty(self) -> str:
        pieces = []
        for location in sorted(self.coefficients):
            pieces.append("ρ(%s, x) = %s" % (location, self.expression(location)))
        return "; ".join(pieces)

    def __repr__(self) -> str:
        return "AffineRankingFunction(%s%s)" % (
            self.pretty(),
            ", strict" if self.strict else "",
        )


@dataclass
class LexicographicRankingFunction:
    """A tuple ⟨ρ_1, …, ρ_m⟩ compared lexicographically (Definition 6)."""

    components: List[AffineRankingFunction] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def evaluate(
        self, location: str, state: Mapping[str, Fraction]
    ) -> Tuple[Fraction, ...]:
        return tuple(
            component.evaluate(location, state) for component in self.components
        )

    def expressions(self, location: str) -> List[LinExpr]:
        return [component.expression(location) for component in self.components]

    def pretty(self) -> str:
        if not self.components:
            return "⟨⟩"
        return "⟨" + "; ".join(
            component.pretty() for component in self.components
        ) + "⟩"

    def __repr__(self) -> str:
        return "LexicographicRankingFunction(%s)" % self.pretty()
