"""Guarded transitions of a control-flow automaton.

A transition carries

* a *guard*: a formula over the (unprimed) program variables, possibly
  mentioning auxiliary variables (havoc inputs, modelling ``nondet()``),
* an *update*: for each program variable either a linear expression over
  the unprimed variables (deterministic assignment) or ``None`` (havoc /
  nondeterministic assignment).  Variables absent from the update map keep
  their value.

:meth:`Transition.post` is one step of symbolic execution: it maps the
affine *versions* of the variables before the step to the guard and the
versions after it, naming only what the step havocs.  The large-block
encoding chains it along the paths between cut points;
:meth:`Transition.relation` closes one step into a formula over ``x`` and
``x'``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import Formula, TRUE, atom, conjunction
from repro.linexpr.transform import (
    formula_variables,
    prime_suffix,
    substitute_formula,
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

    def havocs(self, name: str) -> bool:
        """Whether the transition assigns *name* a nondeterministic value."""
        return name in self.updates and self.updates[name] is None

    # -- semantics ---------------------------------------------------------------

    def post(
        self, versions: Mapping[str, LinExpr]
    ) -> Tuple[Formula, Dict[str, LinExpr]]:
        """One symbolic step from the values *versions*.

        *versions* maps every program variable to the affine expression
        holding its value before the step.  Returns the guard over those
        values and the version map after the step: an assigned variable's
        version is its update over the current versions, a havocked one
        gets a fresh name, and every auxiliary variable (a havoc input)
        is renamed to a fresh name, so that two steps of the same
        transition never share their nondeterministic choices.
        """
        auxiliaries = set(self.guard_variables())
        for expression in self.updates.values():
            if expression is not None:
                auxiliaries |= expression.variables()
        substitution = dict(versions)
        for name in sorted(auxiliaries - set(versions)):
            substitution[name] = LinExpr.variable(fresh_variable(name))
        after = dict(versions)
        for name, expression in self.updates.items():
            if expression is None:
                after[name] = LinExpr.variable(fresh_variable(name))
            else:
                after[name] = expression.substitute(substitution)
        return substitute_formula(self.guard, substitution), after

    def relation(self, variables: Sequence[str]) -> Formula:
        """The transition relation as a formula over ``x`` and ``x'``.

        :meth:`post` from the identity versions, plus ``x' = version(x)``
        for every variable the transition does not havoc.
        """
        guard, after = self.post(
            {name: LinExpr.variable(name) for name in variables}
        )
        parts: List[Formula] = [guard]
        for name in variables:
            if not self.havocs(name):
                parts.append(
                    LinExpr.variable(prime_suffix(name)).eq(after[name])
                )
        return conjunction(parts)

    def guard_constraints(self) -> Optional[List[Constraint]]:
        """The guard as a list of constraints when it is a pure conjunction.

        Returns ``None`` when the guard contains disjunctions; the
        polyhedral invariant generator then falls back to an
        over-approximation.
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
