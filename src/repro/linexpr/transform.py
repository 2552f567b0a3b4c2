"""Structural transformations of formulas.

These are deliberately simple syntactic operations: negation normal form,
renaming, substitution, free-variable collection and — only for the eager
baseline algorithms — expansion into disjunctive normal form.  The core
Termite algorithm never calls :func:`dnf_conjunctions`; avoiding that
exponential expansion is the whole point of the paper.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import (
    And,
    Atom,
    Exists,
    FALSE,
    Formula,
    Not,
    Or,
    TRUE,
    conjunction,
    disjunction,
)

PRIME_SUFFIX = "'"


def prime_suffix(name: str) -> str:
    """The primed (post-state) version of a variable name."""
    return name + PRIME_SUFFIX


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


def to_nnf(formula: Formula, negated: bool = False) -> Formula:
    """Negation normal form: ``Not`` pushed onto (and absorbed by) atoms."""
    if formula is TRUE:
        return FALSE if negated else TRUE
    if formula is FALSE:
        return TRUE if negated else FALSE
    if isinstance(formula, Atom):
        if negated:
            return negate_constraint(formula.constraint)
        return formula
    if isinstance(formula, Not):
        return to_nnf(formula.operand, not negated)
    if isinstance(formula, And):
        parts = [to_nnf(op, negated) for op in formula.operands]
        return disjunction(parts) if negated else conjunction(parts)
    if isinstance(formula, Or):
        parts = [to_nnf(op, negated) for op in formula.operands]
        return conjunction(parts) if negated else disjunction(parts)
    if isinstance(formula, Exists):
        if negated:
            raise ValueError(
                "cannot negate an existential quantifier in this fragment"
            )
        return Exists(formula.variables, to_nnf(formula.body))
    raise TypeError("unknown formula node %r" % (formula,))


def rename_formula(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free variables of *formula* according to *mapping*.

    Bound (existentially quantified) variables shadow the renaming.
    """
    if formula is TRUE or formula is FALSE:
        return formula
    if isinstance(formula, Atom):
        return Atom(formula.constraint.rename(mapping))
    if isinstance(formula, Not):
        return Not(rename_formula(formula.operand, mapping))
    if isinstance(formula, And):
        return conjunction(
            rename_formula(op, mapping) for op in formula.operands
        )
    if isinstance(formula, Or):
        return disjunction(
            rename_formula(op, mapping) for op in formula.operands
        )
    if isinstance(formula, Exists):
        inner = {
            name: target
            for name, target in mapping.items()
            if name not in formula.variables
        }
        return Exists(formula.variables, rename_formula(formula.body, inner))
    raise TypeError("unknown formula node %r" % (formula,))


def substitute_formula(
    formula: Formula, mapping: Mapping[str, LinExpr]
) -> Formula:
    """Substitute expressions for free variables."""
    if formula is TRUE or formula is FALSE:
        return formula
    if isinstance(formula, Atom):
        return Atom(formula.constraint.substitute(mapping))
    if isinstance(formula, Not):
        return Not(substitute_formula(formula.operand, mapping))
    if isinstance(formula, And):
        return conjunction(
            substitute_formula(op, mapping) for op in formula.operands
        )
    if isinstance(formula, Or):
        return disjunction(
            substitute_formula(op, mapping) for op in formula.operands
        )
    if isinstance(formula, Exists):
        inner = {
            name: target
            for name, target in mapping.items()
            if name not in formula.variables
        }
        return Exists(
            formula.variables, substitute_formula(formula.body, inner)
        )
    raise TypeError("unknown formula node %r" % (formula,))


def formula_variables(formula: Formula) -> FrozenSet[str]:
    """The free variables of *formula*."""
    if formula is TRUE or formula is FALSE:
        return frozenset()
    if isinstance(formula, Atom):
        return formula.constraint.variables()
    if isinstance(formula, (Not,)):
        return formula_variables(formula.operand)
    if isinstance(formula, (And, Or)):
        result: Set[str] = set()
        for operand in formula.operands:
            result |= formula_variables(operand)
        return frozenset(result)
    if isinstance(formula, Exists):
        return formula_variables(formula.body) - frozenset(formula.variables)
    raise TypeError("unknown formula node %r" % (formula,))


def formula_atoms(formula: Formula) -> List[Constraint]:
    """All atomic constraints occurring in *formula* (duplicates removed).

    Shared sub-formulas are visited once, so the walk is linear in the
    size of the DAG, not of its unfolding.
    """
    seen: Dict[Constraint, None] = {}
    visited: Set[int] = set()

    def walk(node: Formula) -> None:
        if id(node) in visited:
            return
        visited.add(id(node))
        if isinstance(node, Atom):
            seen.setdefault(node.constraint)
            return
        for child in node.children():
            walk(child)

    walk(formula)
    return list(seen)


def formula_size(formula: Formula) -> int:
    """Number of nodes in the formula DAG (shared nodes counted once)."""
    visited: Set[int] = set()

    def walk(node: Formula) -> int:
        if id(node) in visited:
            return 0
        visited.add(id(node))
        return 1 + sum(walk(child) for child in node.children())

    return walk(formula)


def tighten_strict_atoms(formula: Formula, integer_variables) -> Formula:
    """Replace ``e < 0`` atoms by ``e ≤ -1`` where all variables are integers.

    Sound and complete over integer-valued variables; used by the front-end
    so that rational reasoning downstream (the default mode of the
    synthesiser) does not see spurious fractional boundary points such as
    ``0 < c < 1``.
    """
    integer_variables = set(integer_variables)
    if formula is TRUE or formula is FALSE:
        return formula
    if isinstance(formula, Atom):
        constraint = formula.constraint
        if constraint.is_strict() and constraint.variables() <= integer_variables:
            return Atom(constraint.tighten_for_integers())
        return formula
    if isinstance(formula, Not):
        return Not(tighten_strict_atoms(formula.operand, integer_variables))
    if isinstance(formula, And):
        return conjunction(
            tighten_strict_atoms(op, integer_variables) for op in formula.operands
        )
    if isinstance(formula, Or):
        return disjunction(
            tighten_strict_atoms(op, integer_variables) for op in formula.operands
        )
    if isinstance(formula, Exists):
        return Exists(
            formula.variables,
            tighten_strict_atoms(formula.body, integer_variables),
        )
    raise TypeError("unknown formula node %r" % (formula,))


# ---------------------------------------------------------------------------
# DNF expansion (used by the eager baselines only)
# ---------------------------------------------------------------------------


_fresh_counter = itertools.count()


def _freshen(variables: Sequence[str]) -> Dict[str, str]:
    index = next(_fresh_counter)
    return {name: "%s!dnf%d" % (name, index) for name in variables}


def dnf_conjunctions(formula: Formula) -> List[List[Constraint]]:
    """Expand *formula* into a list of conjunctions of constraints.

    Existential quantifiers are handled by renaming the bound variables to
    fresh names, which leaves them implicitly existentially quantified in
    each disjunct (the eager baselines then project them away with
    Fourier–Motzkin).  The result can be exponentially larger than the
    input — this is exactly the blow-up the lazy algorithm avoids.
    """
    formula = to_nnf(formula)

    def expand(node: Formula) -> List[List[Constraint]]:
        if node is TRUE:
            return [[]]
        if node is FALSE:
            return []
        if isinstance(node, Atom):
            if node.constraint.is_trivially_false():
                return []
            if node.constraint.is_trivially_true():
                return [[]]
            return [[node.constraint]]
        if isinstance(node, Or):
            result: List[List[Constraint]] = []
            for operand in node.operands:
                result.extend(expand(operand))
            return result
        if isinstance(node, And):
            partial: List[List[Constraint]] = [[]]
            for operand in node.operands:
                pieces = expand(operand)
                partial = [
                    left + right for left in partial for right in pieces
                ]
                if not partial:
                    return []
            return partial
        if isinstance(node, Exists):
            renaming = _freshen(node.variables)
            return expand(rename_formula(node.body, renaming))
        if isinstance(node, Not):
            raise ValueError("formula should be in NNF before DNF expansion")
        raise TypeError("unknown formula node %r" % (node,))

    return expand(formula)
