"""Atomic linear constraints.

A :class:`Constraint` is ``expr ⋈ 0`` with ``⋈`` one of ``≤``, ``<``, ``=``.
Comparisons of :class:`~repro.linexpr.expr.LinExpr` objects already normalise
``≥`` and ``>`` to this form, so the rest of the library only ever sees the
three relations.
"""

from __future__ import annotations

import enum
import weakref
from typing import AbstractSet, Mapping

from repro.linalg.rational import Rat, as_fraction, integer_normalize
from repro.linexpr.expr import LinExpr


class Relation(enum.Enum):
    """Comparison against zero."""

    LE = "<="
    LT = "<"
    EQ = "="

    def is_strict(self) -> bool:
        return self is Relation.LT


class Constraint:
    """The atomic constraint ``expr ⋈ 0``.

    :meth:`normalized` returns the *interned* canonical form: one shared
    instance per (primitive-integer expression, relation) pair, cached
    per object.  The same constraint reaching the pipeline through
    different routes (frontend guards, invariant rows, FM combinations,
    checker obligations) therefore normalises to the identical object,
    making post-normalisation hashing and equality effectively O(1)
    (identity plus a cached hash) instead of a structural walk.
    """

    __slots__ = ("_expr", "_relation", "_canonical", "_hash", "__weakref__")

    #: Interning table for canonical forms; weak values keep it from
    #: pinning constraints that nothing references any more.
    _interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __init__(self, expr: LinExpr, relation: Relation):
        if not isinstance(expr, LinExpr):
            raise TypeError("Constraint expects a LinExpr")
        self._expr = expr
        self._relation = relation
        self._canonical = None
        self._hash = None

    # -- accessors ----------------------------------------------------------

    @property
    def expr(self) -> LinExpr:
        """The left-hand side, compared against zero."""
        return self._expr

    @property
    def relation(self) -> Relation:
        return self._relation

    def variables(self) -> frozenset:
        return self._expr.variables()

    def is_strict(self) -> bool:
        return self._relation.is_strict()

    def is_equality(self) -> bool:
        return self._relation is Relation.EQ

    def is_trivially_true(self) -> bool:
        """True when the constraint holds regardless of the variables."""
        if not self._expr.is_constant():
            return False
        value = self._expr.constant_term
        if self._relation is Relation.LE:
            return value <= 0
        if self._relation is Relation.LT:
            return value < 0
        return value == 0

    def is_trivially_false(self) -> bool:
        """True when the constraint is unsatisfiable regardless of variables."""
        return self._expr.is_constant() and not self.is_trivially_true()

    # -- transformations -----------------------------------------------------

    def negate(self) -> "Constraint":
        """The negation; equalities raise (callers split them explicitly)."""
        if self._relation is Relation.LE:
            return Constraint(-self._expr, Relation.LT)
        if self._relation is Relation.LT:
            return Constraint(-self._expr, Relation.LE)
        raise ValueError(
            "negating an equality yields a disjunction; "
            "split it with Or(lhs < rhs, lhs > rhs) instead"
        )

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Constraint":
        return Constraint(self._expr.substitute(mapping), self._relation)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self._expr.rename(mapping), self._relation)

    def weaken(self) -> "Constraint":
        """The non-strict relaxation (``<`` becomes ``≤``)."""
        if self._relation is Relation.LT:
            return Constraint(self._expr, Relation.LE)
        return self

    def tighten_for_integers(self) -> "Constraint":
        """Turn ``e < 0`` into ``e ≤ -1`` when ``e`` has integer coefficients.

        This is sound when every variable of the constraint ranges over the
        integers; it is how guards such as ``i > 0`` become the closed form
        ``i ≥ 1`` used throughout the paper's examples.
        """
        if self._relation is not Relation.LT:
            return self
        coefficients = list(self._expr.terms.values()) + [
            self._expr.constant_term
        ]
        if any(value.denominator != 1 for value in coefficients):
            return self
        return Constraint(self._expr + 1, Relation.LE)

    def closure(self, integer_variables: AbstractSet[str]) -> "Constraint":
        """The closed row a polyhedron keeps for this constraint.

        A strict row over *integer_variables* only is tightened first
        (``x > 3`` becomes ``x ≥ 4``); any other strict row is relaxed to
        its topological closure, a sound over-approximation.
        """
        if self._relation is not Relation.LT:
            return self
        if self.variables() <= integer_variables:
            return self.tighten_for_integers().weaken()
        return self.weaken()

    def normalized(self) -> "Constraint":
        """The interned canonical form: primitive integer coefficients,
        direction preserved, one shared instance per distinct constraint."""
        canonical = self._canonical
        if canonical is not None:
            return canonical
        names = sorted(self._expr.variables())
        coefficients = [self._expr.coefficient(name) for name in names]
        coefficients.append(self._expr.constant_term)
        scaled = integer_normalize(coefficients)
        expr = LinExpr(dict(zip(names, scaled[:-1])), scaled[-1])
        if expr == self._expr:
            canonical = Constraint._intern(self)  # already canonical
        else:
            canonical = Constraint._intern(Constraint(expr, self._relation))
        self._canonical = canonical
        return canonical

    @staticmethod
    def canonical(expr: LinExpr, relation: Relation) -> "Constraint":
        """The interned constraint ``expr ⋈ 0`` for an *expr* already in
        canonical form (primitive integer coefficients), as
        :meth:`normalized` would return it, without re-normalising."""
        found = Constraint._interned.get((expr._terms, expr._constant, relation))
        if found is not None:
            return found
        return Constraint._intern(Constraint(expr, relation))

    @staticmethod
    def _intern(constraint: "Constraint") -> "Constraint":
        """The interned instance equal to the canonical *constraint*; the
        first such instance is interned itself."""
        expr = constraint._expr
        key = (expr._terms, expr._constant, constraint._relation)
        canonical = Constraint._interned.get(key)
        if canonical is None:
            canonical = constraint
            canonical._canonical = canonical
            Constraint._interned[key] = canonical
        return canonical

    # -- evaluation ----------------------------------------------------------

    def satisfied_by(self, assignment: Mapping[str, Rat]) -> bool:
        """Whether the constraint holds under *assignment*."""
        value = self._expr.evaluate(
            {name: as_fraction(v) for name, v in assignment.items()}
        )
        if self._relation is Relation.LE:
            return value <= 0
        if self._relation is Relation.LT:
            return value < 0
        return value == 0

    # -- formula sugar ---------------------------------------------------------

    def __and__(self, other):
        from repro.linexpr.formula import conjunction

        return conjunction([self, other])

    def __or__(self, other):
        from repro.linexpr.formula import disjunction

        return disjunction([self, other])

    def __invert__(self):
        from repro.linexpr.formula import negate_constraint

        return negate_constraint(self)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._expr == other._expr and self._relation == other._relation

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self._expr, self._relation))
        return cached

    def __repr__(self) -> str:
        return "Constraint(%s %s 0)" % (self._expr, self._relation.value)

    def __str__(self) -> str:
        return "%s %s 0" % (self._expr, self._relation.value)
