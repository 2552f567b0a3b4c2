"""Restricting invariants to the states that can take another step.

The ranking functions of Definition 6 must be nonnegative on the invariant
of their cut point.  Taken literally with a weak invariant (for instance
the universe, when nothing is known about the initial state of
``while (x > 0) x--``) this makes even trivial loops unprovable, because no
affine function is nonnegative on the whole space.

The original toolchain does not hit this problem because its front-end
places the cut points *after* the loop test, so the guard is part of the
invariant.  The reproduction keeps arbitrary cut points and instead
restricts each cut-point invariant to an over-approximation of the states
*from which a cycle-relevant step is possible*: the polyhedral join, over
the outgoing CFA edges that can reach the cut-set again, of
``I_k ∧ guard``.

This restriction is sound for termination: every state occurring on an
infinite execution takes another step through one of those edges, so it
lies in the restricted set; a function that decreases on every step and is
nonnegative on the restricted set therefore still bounds the number of
steps.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.invariants.invariant_map import InvariantMap
from repro.polyhedra.polyhedron import Polyhedron
from repro.program.automaton import ControlFlowAutomaton
from repro.program.transition import Transition


def restrict_to_guarded_states(
    automaton: ControlFlowAutomaton,
    cutset: Sequence[str],
    invariants: InvariantMap,
) -> InvariantMap:
    """The cut-set's invariants, each intersected with its outgoing
    relevant guards; synthesis reads no other location's invariant, so
    the result holds none."""
    cut = set(cutset)
    restricted = InvariantMap(automaton.variables)
    for location in cutset:
        base = invariants.get(location)
        relevant = [
            transition
            for transition in automaton.outgoing(location)
            if _reaches_cutset(automaton, transition, cut)
        ]
        if not relevant:
            restricted.set(location, base)
            continue
        domain = Polyhedron.empty(automaton.variables)
        for transition in relevant:
            domain = domain.join(
                _guarded_states(automaton, base, transition)
            )
        minimal = domain.minimized()
        restricted.set(location, base if minimal.is_empty() else minimal)
    return restricted


def _guarded_states(
    automaton: ControlFlowAutomaton,
    base: Polyhedron,
    transition: Transition,
) -> Polyhedron:
    """``I_k ∧ guard`` when the guard is a conjunction, else ``I_k``."""
    guard = transition.guard_constraints()
    if guard is None:
        return base
    return base.intersect_constraints(
        constraint.closure(automaton.integer_variables)
        for constraint in guard
        # Guards over havoc inputs do not restrict the program state.
        if not constraint.variables() - set(automaton.variables)
    )


def _reaches_cutset(
    automaton: ControlFlowAutomaton, transition: Transition, cut: Set[str]
) -> bool:
    """Whether *transition* can start a path that reaches the cut-set again."""
    if transition.target in cut:
        return True
    seen: Set[str] = set()
    frontier = [transition.target]
    while frontier:
        location = frontier.pop()
        if location in seen:
            continue
        seen.add(location)
        for successor in automaton.successors(location):
            if successor in cut:
                return True
            if successor not in seen:
                frontier.append(successor)
    return False
