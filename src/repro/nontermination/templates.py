"""Recurrence-set templates: where candidate polyhedra come from.

The engine's candidate sets ``S = {x | Gx <= g}`` are built from three
syntactic sources, all derived from the automaton itself:

* the **pulled-back guards** of one concrete cycle at a cutpoint — the
  weakest description of "this pass around the cycle is enabled";
* a **pool** of atomic guard rows (:func:`candidate_pool`) harvested from
  every transition guard and the initial condition, used to strengthen a
  leaking candidate with program-relevant facts (e.g. the ``k >= 1`` an
  ``assume`` established before the loop) before falling back to weakest
  preconditions;
* per-havoc **choice templates** (:func:`sigma_candidates`) — the small
  affine menu of values a demonic ``nondet()`` is angelically resolved
  to.  For nontermination, nondeterminism is on our side: *any* concrete
  affine instantiation that keeps the cycle enabled witnesses an infinite
  run.  All candidates have integral coefficients, so integer programs
  stay on integer trajectories.
"""

from __future__ import annotations

from typing import Dict, List

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.transform import formula_atoms
from repro.program.automaton import ControlFlowAutomaton


def candidate_pool(automaton: ControlFlowAutomaton) -> List[Constraint]:
    """Atomic guard/initial-condition rows, deduplicated, automaton order.

    Every row speaks only about program variables (a front-end
    invariant), so any of them may soundly strengthen a recurrence-set
    candidate — a smaller ``S`` is still a recurrence set as long as it
    stays non-empty, closed and reachable.
    """
    rows: List[Constraint] = []
    seen = set()

    def add(constraint: Constraint) -> None:
        if constraint.is_trivially_true() or constraint.is_trivially_false():
            return
        if not constraint.variables() <= set(automaton.variables):
            return
        key = constraint.normalized()
        if key in seen:
            return
        seen.add(key)
        rows.append(constraint)

    for constraint in formula_atoms(automaton.initial_condition):
        add(constraint)
    for transition in automaton.transitions:
        for constraint in formula_atoms(transition.guard):
            add(constraint)
    return rows


def sigma_candidates(name: str, current: LinExpr) -> List[LinExpr]:
    """The affine menu for a havoc of *name*, over the cycle-entry state.

    *current* is the symbolic value of *name* just before the havoc
    (itself affine over the entry state), so "keep the value" is always
    the first candidate.  The menu is deliberately tiny — recurrence sets
    of the fuzzer gadgets and the corpus need nothing richer, and every
    extra candidate multiplies the search.
    """
    entry = LinExpr.variable(name)
    one = LinExpr.constant(1)
    candidates = [
        current,
        entry,
        LinExpr.constant(1),
        LinExpr.constant(0),
        LinExpr.constant(-1),
        current + one,
        current - one,
    ]
    unique: List[LinExpr] = []
    seen: Dict[object, bool] = {}
    for candidate in candidates:
        key = (tuple(sorted(candidate.terms.items())), candidate.constant_term)
        if key in seen:
            continue
        seen[key] = True
        unique.append(candidate)
    return unique
