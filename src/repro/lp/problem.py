"""Model objects for linear programs.

A :class:`LinearProgram` is a set of non-strict linear constraints over
named rational variables together with an affine objective.  Variables are
*free* (unbounded in both directions) unless a constraint says otherwise —
nonnegativity must be stated explicitly, exactly as in Definition 11 of the
paper where the ``γ_i`` carry explicit ``γ_i ≥ 0`` constraints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr


class Sense(enum.Enum):
    """Optimisation direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class LpStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearRow(NamedTuple):
    """A constraint lowered to integers: ``(Σ n_i·x_i + c) / d ⋈ 0``.

    ``names`` are sorted and ``numerators`` follow them; ``d > 0`` and
    ``gcd(n…, c, d) = 1``, so the row holds the exact values of the
    :class:`~repro.linexpr.constraint.Constraint` it came from in one
    canonical form.  :func:`~repro.lp.simplex.solve_lp` takes a row in
    place of a constraint and reads the integers as they are, with no
    ``Fraction`` arithmetic; the SMT theory lowers each atom to its rows
    once (:mod:`repro.smt.theory`).
    """

    relation: Relation
    names: Tuple[str, ...]
    numerators: Tuple[int, ...]
    constant: int
    denominator: int = 1

    @classmethod
    def of(cls, constraint: Constraint) -> "LinearRow":
        """*constraint* over the common denominator of its coefficients."""
        expr = constraint.expr
        terms = expr.terms
        constant = expr.constant_term
        denominator = constant.denominator
        for value in terms.values():
            scale = value.denominator
            if scale != 1:
                denominator = denominator * scale // gcd(denominator, scale)
        return cls(
            constraint.relation,
            tuple(terms),
            tuple(
                value.numerator * (denominator // value.denominator)
                for value in terms.values()
            ),
            constant.numerator * (denominator // constant.denominator),
            denominator,
        )

    def variables(self) -> FrozenSet[str]:
        return frozenset(self.names)

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        """Whether the row holds; a variable without a value raises KeyError.

        The row's value times ``d`` is summed as one integer fraction
        ``numerator / denominator`` with a positive denominator, so its
        sign is the sign of ``numerator``.
        """
        numerator, denominator = self.constant, 1
        for name, coefficient in zip(self.names, self.numerators):
            value = assignment[name]
            scale = value.denominator
            if scale == denominator:
                numerator += coefficient * value.numerator
            else:
                numerator = (
                    numerator * scale + coefficient * value.numerator * denominator
                )
                denominator *= scale
        if self.relation is Relation.LE:
            return numerator <= 0
        if self.relation is Relation.LT:
            return numerator < 0
        return numerator == 0


@dataclass
class LpResult:
    """Result of solving a linear program.

    ``assignment`` is a total map over the program's variables when the
    status is OPTIMAL (and a feasible starting point when UNBOUNDED);
    ``ray`` is a direction of unbounded improvement when UNBOUNDED.
    ``pivots`` counts the simplex pivots the solve performed — the cost
    metric the warm-start machinery of :mod:`repro.lp.simplex` reduces.

    ``multipliers`` (one per input constraint ``expr_i ≤ 0`` /
    ``expr_i = 0``, nonnegative on inequalities) are the duals a one-shot
    :func:`~repro.lp.simplex.solve_lp` reads off its final tableau and
    lifts back through its equality elimination, or ``None`` when
    unavailable.  When INFEASIBLE, ``Σ μ_i·expr_i`` is a
    positive constant (a Farkas certificate); when OPTIMAL it equals
    ``f* − f`` for the minimised objective ``f`` with optimum ``f*`` (a
    maximised ``g`` gives ``g − g*``).  Variables passed as
    ``nonnegative`` add their implicit ``x ≥ 0`` rows to both identities.
    """

    status: LpStatus
    assignment: Dict[str, Fraction] = field(default_factory=dict)
    objective: Optional[Fraction] = None
    ray: Dict[str, Fraction] = field(default_factory=dict)
    pivots: int = 0
    multipliers: Optional[List[Fraction]] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    @property
    def is_infeasible(self) -> bool:
        return self.status is LpStatus.INFEASIBLE

    @property
    def is_unbounded(self) -> bool:
        return self.status is LpStatus.UNBOUNDED


class LinearProgram:
    """A linear program under construction."""

    def __init__(
        self,
        sense: Sense = Sense.MINIMIZE,
        objective: Optional[LinExpr] = None,
    ):
        self.sense = sense
        self.objective = objective if objective is not None else LinExpr()
        self.constraints: List[Union[Constraint, LinearRow]] = []
        self._declared: List[str] = []

    # -- construction --------------------------------------------------------

    def declare(self, *names: str) -> None:
        """Declare variables so they appear in the solution even if unused."""
        for name in names:
            if name not in self._declared:
                self._declared.append(name)

    def add_constraint(self, constraint: Union[Constraint, LinearRow]) -> None:
        """Add a non-strict constraint, or a :class:`LinearRow` in its place.

        Strict inequalities are rejected: linear programming optimises over
        closed sets.  Callers that need strictness (the SMT theory solver)
        use the epsilon encoding in :mod:`repro.smt.theory`.
        """
        if constraint.relation is Relation.LT:
            raise ValueError(
                "strict inequality %s cannot be added to an LP" % (constraint,)
            )
        self.constraints.append(constraint)

    def add_constraints(
        self, constraints: Sequence[Union[Constraint, LinearRow]]
    ) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    # -- inspection ----------------------------------------------------------

    def variables(self) -> List[str]:
        """All variables, declared ones first, then in order of appearance."""
        ordered: List[str] = list(self._declared)
        seen = set(ordered)
        for constraint in self.constraints:
            for name in sorted(constraint.variables()):
                if name not in seen:
                    seen.add(name)
                    ordered.append(name)
        for name in sorted(self.objective.variables()):
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return ordered

    @property
    def num_rows(self) -> int:
        """Number of constraints — the "lines" statistic of Table 1."""
        return len(self.constraints)

    @property
    def num_cols(self) -> int:
        """Number of variables — the "columns" statistic of Table 1."""
        return len(self.variables())

    def solve(self) -> LpResult:
        """Solve with the exact simplex (convenience wrapper)."""
        from repro.lp.simplex import solve_lp

        return solve_lp(
            self.objective,
            self.constraints,
            sense=self.sense,
            variables=self.variables(),
        )
