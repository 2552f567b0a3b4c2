"""Quantifier-free formulas over linear constraints, in negation normal form.

The paper's transition relations are "large-block" formulas: conjunctions
and disjunctions of linear atoms, *without* an eager expansion into
disjunctive normal form.  This module provides exactly that abstract
syntax, and nothing else: there is no negation node and no quantifier.
Auxiliary variables (join copies, havoc inputs) are left free, and
``~f`` returns the negation of *f* already in negation normal form, so
every formula is NNF by construction.

Formulas form a DAG: sub-formulas may be shared between parents.  The
Tseitin conversion in :mod:`repro.smt.cnf` caches on object identity, so a
shared sub-formula is encoded once — this is what keeps the large-block
encoding linear in the size of the program.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple, Union

from repro.linexpr.constraint import Constraint, Relation

FormulaLike = Union["Formula", Constraint, bool]


class Formula:
    """Base class of all formula nodes."""

    __slots__ = ()

    def __and__(self, other: FormulaLike) -> "Formula":
        return conjunction([self, other])

    def __rand__(self, other: FormulaLike) -> "Formula":
        return conjunction([other, self])

    def __or__(self, other: FormulaLike) -> "Formula":
        return disjunction([self, other])

    def __ror__(self, other: FormulaLike) -> "Formula":
        return disjunction([other, self])

    def __invert__(self) -> "Formula":
        """The negation, in negation normal form.

        De Morgan pushes it down to the atoms, which negate through
        :func:`negate_constraint`; shared nodes stay shared.
        """
        return map_atoms(self, lambda node: negate_constraint(node.constraint), dual=True)

    def children(self) -> Tuple["Formula", ...]:
        """Immediate sub-formulas (empty for leaves)."""
        return ()


class _Constant(Formula):
    """The constants TRUE and FALSE."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = _Constant(True)
FALSE = _Constant(False)


class Atom(Formula):
    """A linear constraint used as a formula leaf."""

    __slots__ = ("constraint",)

    def __init__(self, constraint: Constraint):
        if not isinstance(constraint, Constraint):
            raise TypeError("Atom wraps a Constraint")
        self.constraint = constraint

    def __repr__(self) -> str:
        return "Atom(%s)" % self.constraint


class And(Formula):
    """Conjunction of sub-formulas (empty conjunction is TRUE)."""

    __slots__ = ("operands",)

    def __init__(self, operands: Iterable[FormulaLike]):
        self.operands: Tuple[Formula, ...] = tuple(
            atom(op) for op in operands
        )

    def children(self) -> Tuple[Formula, ...]:
        return self.operands

    def __repr__(self) -> str:
        return "And(%d operands)" % len(self.operands)


class Or(Formula):
    """Disjunction of sub-formulas (empty disjunction is FALSE)."""

    __slots__ = ("operands",)

    def __init__(self, operands: Iterable[FormulaLike]):
        self.operands: Tuple[Formula, ...] = tuple(
            atom(op) for op in operands
        )

    def children(self) -> Tuple[Formula, ...]:
        return self.operands

    def __repr__(self) -> str:
        return "Or(%d operands)" % len(self.operands)


def atom(value: FormulaLike) -> Formula:
    """Coerce a constraint or boolean into a formula node."""
    if isinstance(value, Formula):
        return value
    if isinstance(value, Constraint):
        return Atom(value)
    if isinstance(value, bool):
        return TRUE if value else FALSE
    raise TypeError("cannot interpret %r as a formula" % (value,))


def map_atoms(
    formula: Formula, function: Callable[[Atom], Formula], dual: bool = False
) -> Formula:
    """*formula* with every atom replaced by ``function(atom)``.

    With *dual*, ``And`` and ``Or`` swap, and so do TRUE and FALSE.  Each
    shared node is rebuilt once, so the result keeps the sharing.
    """
    rebuilt: Dict[int, Formula] = {}

    def walk(node: Formula) -> Formula:
        result = rebuilt.get(id(node))
        if result is not None:
            return result
        if node is TRUE or node is FALSE:
            result = (FALSE if node is TRUE else TRUE) if dual else node
        elif isinstance(node, Atom):
            result = function(node)
        elif isinstance(node, (And, Or)):
            parts = [walk(op) for op in node.operands]
            is_conjunction = isinstance(node, And) != dual
            result = conjunction(parts) if is_conjunction else disjunction(parts)
        else:
            raise TypeError("unknown formula node %r" % (node,))
        rebuilt[id(node)] = result
        return result

    return walk(formula)


def negate_constraint(constraint: Constraint) -> Formula:
    """The negation of an atomic constraint as a formula.

    Inequalities negate to the opposite strict/non-strict inequality; an
    equality negates to the disjunction of the two strict inequalities.
    """
    if constraint.relation is Relation.EQ:
        return disjunction(
            [
                Constraint(constraint.expr, Relation.LT),
                Constraint(-constraint.expr, Relation.LT),
            ]
        )
    return Atom(constraint.negate())


def conjunction(operands: Iterable[FormulaLike]) -> Formula:
    """N-ary conjunction with the obvious simplifications."""
    flattened = []
    for operand in operands:
        node = atom(operand)
        if node is TRUE:
            continue
        if node is FALSE:
            return FALSE
        if isinstance(node, And):
            flattened.extend(node.operands)
        else:
            flattened.append(node)
    if not flattened:
        return TRUE
    if len(flattened) == 1:
        return flattened[0]
    return And(flattened)


def disjunction(operands: Iterable[FormulaLike]) -> Formula:
    """N-ary disjunction with the obvious simplifications."""
    flattened = []
    for operand in operands:
        node = atom(operand)
        if node is FALSE:
            continue
        if node is TRUE:
            return TRUE
        if isinstance(node, Or):
            flattened.extend(node.operands)
        else:
            flattened.append(node)
    if not flattened:
        return FALSE
    if len(flattened) == 1:
        return flattened[0]
    return Or(flattened)
