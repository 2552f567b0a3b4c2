"""Structural transformations of formulas.

These are deliberately simple syntactic operations: renaming,
substitution, free-variable collection and — only for the eager baseline
algorithms — expansion into disjunctive normal form.  Formulas are
quantifier-free and in negation normal form by construction
(:mod:`repro.linexpr.formula`), so no pass normalises them first.  Every
walk but the DNF expansion visits each node of the DAG once.  The core
Termite algorithm never calls :func:`dnf_conjunctions`; avoiding that
exponential expansion is the whole point of the paper.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Set

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import (
    And,
    Atom,
    FALSE,
    Formula,
    Or,
    TRUE,
    map_atoms,
)

PRIME_SUFFIX = "'"


def prime_suffix(name: str) -> str:
    """The primed (post-state) version of a variable name."""
    return name + PRIME_SUFFIX


def rename_formula(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename the variables of *formula* according to *mapping*."""
    return map_atoms(formula, lambda node: Atom(node.constraint.rename(mapping)))


def substitute_formula(
    formula: Formula, mapping: Mapping[str, LinExpr]
) -> Formula:
    """Substitute expressions for variables."""
    return map_atoms(
        formula, lambda node: Atom(node.constraint.substitute(mapping))
    )


def _nodes(formula: Formula) -> List[Formula]:
    """The nodes of the *formula* DAG, each once, in depth-first preorder.

    Shared sub-formulas are visited once, so the walk is linear in the
    size of the DAG, not of its unfolding.
    """
    nodes: List[Formula] = []
    visited: Set[int] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        nodes.append(node)
        stack.extend(reversed(node.children()))
    return nodes


def formula_variables(formula: Formula) -> FrozenSet[str]:
    """The variables of *formula*."""
    result: Set[str] = set()
    for node in _nodes(formula):
        if isinstance(node, Atom):
            result |= node.constraint.variables()
    return frozenset(result)


def formula_atoms(formula: Formula) -> List[Constraint]:
    """All atomic constraints occurring in *formula* (duplicates removed)."""
    seen: Dict[Constraint, None] = {}
    for node in _nodes(formula):
        if isinstance(node, Atom):
            seen.setdefault(node.constraint)
    return list(seen)


def formula_size(formula: Formula) -> int:
    """Number of nodes in the formula DAG (shared nodes counted once)."""
    return len(_nodes(formula))


def tighten_strict_atoms(formula: Formula, integer_variables) -> Formula:
    """Replace ``e < 0`` atoms by ``e ≤ -1`` where all variables are integers.

    Sound and complete over integer-valued variables; used by the front-end
    so that rational reasoning downstream (the default mode of the
    synthesiser) does not see spurious fractional boundary points such as
    ``0 < c < 1``.
    """
    integer_variables = set(integer_variables)

    def tighten(node: Atom) -> Formula:
        constraint = node.constraint
        if constraint.is_strict() and constraint.variables() <= integer_variables:
            return Atom(constraint.tighten_for_integers())
        return node

    return map_atoms(formula, tighten)


# ---------------------------------------------------------------------------
# DNF expansion (used by the eager baselines only)
# ---------------------------------------------------------------------------


def dnf_conjunctions(formula: Formula) -> List[List[Constraint]]:
    """Expand *formula* into a list of conjunctions of constraints.

    The result can be exponentially larger than the input — this is
    exactly the blow-up the lazy algorithm avoids.
    """

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
        raise TypeError("unknown formula node %r" % (node,))

    return expand(formula)
