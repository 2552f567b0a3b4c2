"""Guarded transitions of a control-flow automaton.

A transition carries

* a *guard*: a formula over the (unprimed) program variables, possibly
  mentioning auxiliary variables (havoc inputs, modelling ``nondet()``),
* an *update*: for each program variable either a linear expression over
  the unprimed variables (deterministic assignment) or ``None`` (havoc /
  nondeterministic assignment).  Variables absent from the update map keep
  their value.

The method :meth:`Transition.relation` turns the transition into a formula
over ``x`` and ``x'`` — the building block of both the step-by-step
semantics used by the invariant generator and the large-block encoding
used by the synthesiser.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import Formula, TRUE, atom, conjunction
from repro.linexpr.transform import (
    formula_variables,
    prime_suffix,
    rename_formula,
)

_fresh_counter = itertools.count()


def fresh_variable(stem: str = "aux") -> str:
    """A globally fresh auxiliary variable name."""
    return "%s!%d" % (stem, next(_fresh_counter))


@dataclass
class Transition:
    """A guarded command ``source --[guard / updates]--> target``."""

    source: str
    target: str
    guard: Formula = TRUE
    updates: Dict[str, Optional[LinExpr]] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        self.guard = atom(self.guard)
        if not self.name:
            self.name = "%s->%s#%d" % (
                self.source,
                self.target,
                next(_fresh_counter),
            )

    # -- queries ---------------------------------------------------------------

    def guard_variables(self) -> frozenset:
        return formula_variables(self.guard)

    # -- semantics ---------------------------------------------------------------

    def relation(
        self,
        variables: Sequence[str],
        prime: Optional[Mapping[str, str]] = None,
        source_renaming: Optional[Mapping[str, str]] = None,
    ) -> Formula:
        """The transition relation as a formula over ``x`` and ``x'``.

        ``prime`` maps each program variable to the name holding its value
        *after* the transition (default: the ``'``-suffixed name);
        ``source_renaming`` optionally renames the *pre*-state variables
        (used by the large-block encoder, which gives every intermediate
        location its own copies).  Auxiliary (havoc) variables are renamed
        to globally fresh names so that two occurrences of the same
        transition never share their nondeterministic choices.
        """
        if prime is None:
            prime = {name: prime_suffix(name) for name in variables}
        source_renaming = dict(source_renaming or {})

        # Fresh copies for auxiliary variables appearing in the guard or in
        # the right-hand sides but not being program variables.
        auxiliaries = set()
        auxiliaries |= set(self.guard_variables()) - set(variables)
        for expression in self.updates.values():
            if expression is not None:
                auxiliaries |= set(expression.variables()) - set(variables)
        aux_renaming = {name: fresh_variable(name) for name in sorted(auxiliaries)}

        pre_renaming = dict(aux_renaming)
        pre_renaming.update(source_renaming)

        parts: List[Formula] = [rename_formula(self.guard, pre_renaming)]
        for name in variables:
            post_name = prime[name]
            expression = self.updates.get(name, LinExpr.variable(name))
            if expression is None:
                # Havoc: the post value is unconstrained, nothing to add.
                continue
            renamed = expression.rename(pre_renaming)
            parts.append(
                Constraint(
                    LinExpr.variable(post_name) - renamed,
                    Relation.EQ,
                )
            )
        return conjunction(parts)

    def guard_constraints(self) -> Optional[List[Constraint]]:
        """The guard as a list of constraints when it is a pure conjunction.

        Returns ``None`` when the guard contains disjunctions or
        quantifiers; the polyhedral invariant generator then falls back to
        an over-approximation.
        """
        from repro.linexpr.formula import And, Atom

        collected: List[Constraint] = []

        def walk(node: Formula) -> bool:
            if node is TRUE:
                return True
            if isinstance(node, Atom):
                collected.append(node.constraint)
                return True
            if isinstance(node, And):
                return all(walk(child) for child in node.operands)
            return False

        if walk(self.guard):
            return collected
        return None

    def __repr__(self) -> str:
        updates = ", ".join(
            "%s := %s" % (name, "?" if expr is None else expr)
            for name, expr in sorted(self.updates.items())
        )
        return "Transition(%s -> %s | %r | %s)" % (
            self.source,
            self.target,
            self.guard,
            updates or "skip",
        )
